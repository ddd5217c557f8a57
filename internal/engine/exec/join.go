package exec

import (
	"fmt"
	"slices"

	"indbml/internal/engine/expr"
	"indbml/internal/engine/types"
	"indbml/internal/engine/vector"
)

// HashJoin is an inner equi-join following the classic two-phase build/probe
// pattern the paper models the ModelJoin on (Fig. 5). The build side is
// materialized into a hash table; the probe side streams. With zero key
// pairs it degenerates to a cross join (the input function of ML-To-SQL
// cross-joins the fact table with the model's input layer, Listing 2/3).
//
// Output columns are always Left's followed by Right's. When BuildRight is
// set (the default chosen by the planner when the right side is small — the
// model side), the left input streams, so the join preserves the left
// input's row order; this is what makes the pipelined, order-based
// aggregation of Sec. 4.4 possible downstream.
type HashJoin struct {
	Left, Right         Operator
	LeftKeys, RightKeys []expr.Expr
	// BuildRight selects which side is materialized: true builds the hash
	// table from Right and probes with Left.
	BuildRight bool

	schema *types.Schema
	// cols maps every output column to its source: a column of the probe
	// batch, or a column of the build data (which holds only the build-side
	// columns the output keeps).
	cols      []joinCol
	buildCols []int // build-side ordinals behind the build data's columns

	hashBuild // built at Open

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

// NewHashJoin constructs an inner hash join. keep lists the output columns
// as ordinals into Left's columns followed by Right's (nil keeps them all):
// the planner names the columns something above the join reads, and only
// those are materialized on the build side and gathered into the output.
func NewHashJoin(left, right Operator, leftKeys, rightKeys []expr.Expr, buildRight bool, keep []int) (*HashJoin, error) {
	if err := promoteKeys(leftKeys, rightKeys); err != nil {
		return nil, err
	}
	j := &HashJoin{
		Left: left, Right: right,
		LeftKeys: leftKeys, RightKeys: rightKeys,
		BuildRight: buildRight,
	}
	both := left.Schema().Concat(right.Schema())
	nLeft := left.Schema().Len()
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
func NewCrossJoin(left, right Operator) (*HashJoin, error) {
	return NewHashJoin(left, right, nil, nil, true, nil)
}

// Schema implements Operator.
func (j *HashJoin) Schema() *types.Schema { return j.schema }

func (j *HashJoin) buildSide() (Operator, []expr.Expr) {
	if j.BuildRight {
		return j.Right, j.RightKeys
	}
	return j.Left, j.LeftKeys
}

func (j *HashJoin) probeSide() (Operator, []expr.Expr) {
	if j.BuildRight {
		return j.Left, j.LeftKeys
	}
	return j.Right, j.RightKeys
}

// hashBuild is the build side of a hash join: the key table numbers the
// distinct build keys, data holds the kept build columns, and the build rows
// of key g are rows[start[g]:start[g+1]], in build order.
type hashBuild struct {
	table *groupTable
	data  *vector.Batch
	start []int
	rows  []int
}

// buildHash drains build into a hashBuild over keys, copying the build
// columns cols (the child may reuse its batches). Rows with a NULL key
// match nothing (SQL equality). With no keys (a cross join) every row
// resolves to the one empty key.
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

// Open implements Operator: it drains the build side into the key table.
func (j *HashJoin) Open() error {
	if err := j.Left.Open(); err != nil {
		return err
	}
	if err := j.Right.Open(); err != nil {
		return err
	}
	build, buildKeys := j.buildSide()
	var err error
	if j.hashBuild, err = buildHash(build, buildKeys, j.buildCols); err != nil {
		return err
	}

	j.out = vector.NewBatch(j.schema, vector.Size)
	j.probeSel = make([]int, vector.Size)
	j.buildSel = make([]int, vector.Size)
	_, probeKeys := j.probeSide()
	j.probeEvs = expr.NewEvaluators(probeKeys)
	j.probeKeys = make([]*vector.Vector, len(probeKeys))
	j.probeBatch = nil
	j.probeRow, j.matchPos = 0, 0
	return nil
}

// Next implements Operator: it emits combined rows in probe order, resuming
// mid-row across calls when a probe row matches more build rows than fit in
// one output batch. Selections never span probe batches, because probe
// children are free to reuse their output buffers between Next calls.
func (j *HashJoin) Next() (*vector.Batch, error) {
	probe, _ := j.probeSide()
	for {
		if j.probeBatch == nil {
			b, err := probe.Next()
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
			j.table.stage(j.probeKeys, b.Len())
			j.table.resolve(0, b.Len(), j.probeIDs, false)
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

// Close implements Operator.
func (j *HashJoin) Close() error {
	err1 := j.Left.Close()
	err2 := j.Right.Close()
	j.hashBuild, j.out, j.probeEvs = hashBuild{}, nil, nil
	if err1 != nil {
		return err1
	}
	return err2
}
