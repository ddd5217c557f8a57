package exec

import (
	"fmt"
	"slices"
	"sync"

	"indbml/internal/engine/expr"
	"indbml/internal/engine/types"
	"indbml/internal/engine/vector"
	"indbml/internal/trace"
)

// HashJoin is an inner equi-join following the classic two-phase build/probe
// pattern the paper models the ModelJoin on (Fig. 5). The build side is
// materialized into a hash table; the probe side streams. With zero key
// pairs it degenerates to a cross join (the input function of ML-To-SQL
// cross-joins the fact table with the model's input layer, Listing 2/3).
//
// Output columns are always the left input's followed by the right's. When
// BuildRight is set (the default chosen by the planner when the right side
// is small — the model side), the left input streams as Probe, so the join
// preserves the left input's row order; this is what makes the pipelined,
// order-based aggregation of Sec. 4.4 possible downstream.
type HashJoin struct {
	Probe                Operator
	Build                *Build
	ProbeKeys, BuildKeys []expr.Expr
	// BuildRight reports that Build is the right input: its columns follow
	// Probe's in the output.
	BuildRight bool

	schema *types.Schema
	// cols maps every output column to its source: a column of the probe
	// batch, or a column of the build data (which holds only the build-side
	// columns the output keeps).
	cols      []joinCol
	buildCols []int // build-side ordinals behind the build data's columns
	span      *trace.Span

	// Open takes the build from Build, as a prober.
	hashBuild

	// Probe state. out and the two selection vectors are allocated at Open
	// and reused by every Next.
	out                *vector.Batch
	probeSel, buildSel []int
	probeBatch         *vector.Batch
	probeEvs           []expr.Evaluator
	probeKeys          []*vector.Vector
	probeIDs           []int32 // build key id per probe row, -1 = no match
	probeRow           int
	matchPos           int
}

type joinCol struct {
	fromBuild bool
	src       int
}

// NewHashJoin constructs an inner hash join of probe and build. keep lists
// the output columns as ordinals into the left input's columns followed by
// the right's (nil keeps them all): the planner names the columns something
// above the join reads, and only those are materialized on the build side
// and gathered into the output.
func NewHashJoin(probe Operator, build *Build, probeKeys, buildKeys []expr.Expr, buildRight bool, keep []int) (*HashJoin, error) {
	if err := promoteKeys(probeKeys, buildKeys); err != nil {
		return nil, err
	}
	j := &HashJoin{
		Probe: probe, Build: build,
		ProbeKeys: probeKeys, BuildKeys: buildKeys,
		BuildRight: buildRight,
	}
	left, right := probe.Schema(), build.Input.Schema()
	if !buildRight {
		left, right = right, left
	}
	both, nLeft := left.Concat(right), left.Len()
	if keep == nil {
		keep = make([]int, both.Len())
		for i := range keep {
			keep[i] = i
		}
	}
	outCols := make([]types.Column, len(keep))
	for k, o := range keep {
		if o < 0 || o >= both.Len() {
			return nil, fmt.Errorf("exec: join output column %d out of range (inputs have %d)", o, both.Len())
		}
		outCols[k] = both.Col(o)
		src, onRight := o, o >= nLeft
		if onRight {
			src -= nLeft
		}
		if onRight == buildRight {
			j.cols = append(j.cols, joinCol{fromBuild: true, src: len(j.buildCols)})
			j.buildCols = append(j.buildCols, src)
		} else {
			j.cols = append(j.cols, joinCol{src: src})
		}
	}
	j.schema = types.NewSchema(outCols...)
	return j, nil
}

// promoteKeys casts each pair of join keys to their common type.
func promoteKeys(leftKeys, rightKeys []expr.Expr) error {
	if len(leftKeys) != len(rightKeys) {
		return fmt.Errorf("exec: join has %d left keys but %d right keys", len(leftKeys), len(rightKeys))
	}
	for i := range leftKeys {
		lt, rt := leftKeys[i].Type(), rightKeys[i].Type()
		if lt != rt {
			common, err := types.Promote(lt, rt)
			if err != nil {
				return fmt.Errorf("exec: join key %d: %w", i, err)
			}
			leftKeys[i] = expr.NewCast(leftKeys[i], common)
			rightKeys[i] = expr.NewCast(rightKeys[i], common)
		}
	}
	return nil
}

// NewCrossJoin constructs a cross join (a key-less hash join) that
// materializes the right side.
func NewCrossJoin(left Operator, right *Build) (*HashJoin, error) {
	return NewHashJoin(left, right, nil, nil, true, nil)
}

// Schema implements Operator.
func (j *HashJoin) Schema() *types.Schema { return j.schema }

// SetSpan implements trace.SpanCarrier: Open labels a keyed join's span with
// the key structure its probes read.
func (j *HashJoin) SetSpan(sp *trace.Span) { j.span = sp }

// Build is the build side of a hash join or groupjoin: the operator tree
// that feeds it and what the join builds from it. In a partition-parallel
// plan, every instance of a join whose build side scans no driver table
// holds the same Build, as the paper's execution threads share the model
// table (Sec. 4.4): the first instance to open it drains and closes Input,
// the others wait for it and then probe what it built read-only, and every
// one returns the build's error. Any other join has a Build of its own and
// runs the same code.
type Build struct {
	Input Operator

	once sync.Once
	err  error
	hashBuild
	// A GroupJoin's: the group ordinal of the build row rows[k], at k; each
	// sum's build operand in the same chain order; the group count.
	ord    []int32
	w      []*vector.Vector
	groups int
}

// NewBuild returns the build side of one join over input.
func NewBuild(input Operator) *Build { return &Build{Input: input} }

// run builds b with fn once, however many joins call it, and returns the
// build's error. fn reads Input, which run has opened and closes after it.
func (b *Build) run(fn func() error) error {
	b.once.Do(func() {
		if b.err = b.Input.Open(); b.err != nil {
			return
		}
		b.err = fn()
		if err := b.Input.Close(); b.err == nil {
			b.err = err
		}
	})
	return b.err
}

// hashBuild is the build side of a hash join: the key table numbers the
// distinct build keys, data holds the kept build columns, and the build rows
// of key g are rows[start[g]:start[g+1]], in build order.
type hashBuild struct {
	table  *groupTable
	direct directIndex // with slots, the keys are dense: probes read it, not table
	data   *vector.Batch
	start  []int
	rows   []int
}

// prober returns h for one probing instance: its hash table, if it probes
// one, as a view that stages into scratch of the instance's own.
func (h hashBuild) prober() hashBuild {
	if h.direct.slots == nil {
		h.table = h.table.prober()
	}
	return h
}

// lookup writes the key id of each of the n probe keys in vecs to ids, -1
// for a key no build row has or one with a NULL column.
func (h *hashBuild) lookup(vecs []*vector.Vector, n int, ids []int32) {
	if h.direct.slots != nil {
		h.direct.lookup(vecs, n, ids)
		return
	}
	h.table.stage(vecs, n)
	h.table.resolve(0, n, ids, false)
}

// labelKeys labels sp, the span of a join over keys, keys=direct or
// keys=hash after the structure its probes read; a cross join gets none.
func (h *hashBuild) labelKeys(sp *trace.Span, keys []expr.Expr) {
	if sp != nil && len(keys) > 0 {
		path := "hash"
		if h.direct.slots != nil {
			path = "direct"
		}
		sp.SetLabel("keys", path)
	}
}

// buildHash drains build into a hashBuild over keys, copying the build
// columns cols (the child may reuse its batches), and indexes the keys
// directly when they are dense integers. Rows with a NULL key match nothing
// (SQL equality). With no keys (a cross join) every row resolves to the one
// empty key.
func buildHash(build Operator, keys []expr.Expr, cols []int) (hashBuild, error) {
	h := hashBuild{table: newGroupTable(exprTypes(keys), true)}
	kept := make([]types.Column, len(cols))
	for i, c := range cols {
		kept[i] = build.Schema().Col(c)
	}
	h.data = vector.NewBatch(types.NewSchema(kept...), 0)
	evs := expr.NewEvaluators(keys)
	keyVecs := make([]*vector.Vector, len(keys))
	var ids []int32 // key id per build row
	for {
		b, err := build.Next()
		if err != nil {
			return h, err
		}
		if b == nil {
			break
		}
		if err := evalInto(keyVecs, evs, b); err != nil {
			return h, err
		}
		at := len(ids)
		ids = slices.Grow(ids, b.Len())[:at+b.Len()]
		h.table.stage(keyVecs, b.Len())
		h.table.resolve(0, b.Len(), ids[at:], true)
		for i, c := range cols {
			h.data.Vecs[i].AppendRange(b.Vecs[c], 0, b.Len())
		}
		h.data.SetLen(len(ids))
	}
	h.direct = newDirectIndex(h.table)
	// Counting sort of the build rows by key id keeps build order per key.
	n := h.table.len()
	h.start = make([]int, n+1)
	for _, g := range ids {
		if g >= 0 {
			h.start[g+1]++
		}
	}
	for g := 0; g < n; g++ {
		h.start[g+1] += h.start[g]
	}
	h.rows = make([]int, h.start[n])
	next := append([]int(nil), h.start[:n]...)
	for r, g := range ids {
		if g >= 0 {
			h.rows[next[g]] = r
			next[g]++
		}
	}
	return h, nil
}

// Open implements Operator: it opens the probe side and gets the key table
// from Build, building it if no other instance of the join has.
func (j *HashJoin) Open() error {
	if err := j.Probe.Open(); err != nil {
		return err
	}
	b := j.Build
	err := b.run(func() (err error) {
		b.hashBuild, err = buildHash(b.Input, j.BuildKeys, j.buildCols)
		return err
	})
	if err != nil {
		return err
	}
	j.hashBuild = b.hashBuild.prober()
	j.labelKeys(j.span, j.BuildKeys)

	j.out = vector.NewBatch(j.schema, vector.Size)
	j.probeSel = make([]int, vector.Size)
	j.buildSel = make([]int, vector.Size)
	j.probeEvs = expr.NewEvaluators(j.ProbeKeys)
	j.probeKeys = make([]*vector.Vector, len(j.ProbeKeys))
	j.probeBatch = nil
	j.probeRow, j.matchPos = 0, 0
	return nil
}

// Next implements Operator: it emits combined rows in probe order, resuming
// mid-row across calls when a probe row matches more build rows than fit in
// one output batch. Selections never span probe batches, because probe
// children are free to reuse their output buffers between Next calls.
func (j *HashJoin) Next() (*vector.Batch, error) {
	for {
		if j.probeBatch == nil {
			b, err := j.Probe.Next()
			if err != nil || b == nil {
				return nil, err
			}
			if b.Len() == 0 {
				continue
			}
			if err := evalInto(j.probeKeys, j.probeEvs, b); err != nil {
				return nil, err
			}
			if len(j.probeIDs) < b.Len() {
				j.probeIDs = make([]int32, b.Len())
			}
			j.lookup(j.probeKeys, b.Len(), j.probeIDs)
			j.probeBatch, j.probeRow, j.matchPos = b, 0, 0
		}
		n := 0
		for j.probeRow < j.probeBatch.Len() && n < vector.Size {
			if g := j.probeIDs[j.probeRow]; g >= 0 {
				matches := j.rows[j.start[g]+j.matchPos : j.start[g+1]]
				take := min(len(matches), vector.Size-n)
				for i, m := range matches[:take] {
					j.probeSel[n+i] = j.probeRow
					j.buildSel[n+i] = m
				}
				n += take
				if take < len(matches) {
					j.matchPos += take // output full mid-row; resume here
					break
				}
			}
			j.probeRow++
			j.matchPos = 0
		}
		b := j.probeBatch
		if j.probeRow == b.Len() {
			// Probe batch exhausted: emit whatever matched before letting
			// the child recycle its buffer.
			j.probeBatch = nil
		}
		if n > 0 {
			j.emit(b, j.probeSel[:n], j.buildSel[:n])
			return j.out, nil
		}
	}
}

// emit gathers the selected probe/build rows into the output batch.
func (j *HashJoin) emit(probeBatch *vector.Batch, probeSel, buildSel []int) {
	for k, c := range j.cols {
		if c.fromBuild {
			j.out.Vecs[k].CopyFrom(j.data.Vecs[c.src], buildSel)
		} else {
			j.out.Vecs[k].CopyFrom(probeBatch.Vecs[c.src], probeSel)
		}
	}
	j.out.SetLen(len(probeSel))
}

// Close implements Operator. The build input was closed by the build.
func (j *HashJoin) Close() error {
	j.hashBuild, j.out, j.probeEvs = hashBuild{}, nil, nil
	return j.Probe.Close()
}
