package exec

import (
	"fmt"

	"indbml/internal/engine/expr"
	"indbml/internal/engine/types"
	"indbml/internal/engine/vector"
	"indbml/internal/trace"
)

// GroupJoin is a HashJoin and the SegmentedAggregate above it in one
// operator, for one dense layer of the paper's ML-To-SQL query (Sec. 4.3.2,
// Listing 4): input ⋈ model ON node = node_in, grouped by the input's
// clustered id and model columns, summing output_activated * w_i. A probe
// row adds each match's product straight into the match's group instead of
// writing out a joined row for the aggregate to key back into its group.
//
// The build is HashJoin's, shared the same way, and a groupTable over the
// build's group columns gives each build row a dense ordinal, so groups key
// as in the aggregate (NaN, −0/+0, NULL). Per segment of the probe's
// clustered prefix, a float64 accumulator per ordinal and sum takes
// float64(x * w) of every pair, each probe row's matches in build order; at
// the segment's end the touched groups are emitted in first-touch order,
// with the group values of their first pair. Every group adds the same terms
// in the same order, and rows come out in the same order, as HashJoin →
// SegmentedAggregate: the results are bit-equal.
type GroupJoin struct {
	Probe                Operator
	Build                *Build
	ProbeKeys, BuildKeys []expr.Expr
	// GroupBy lists the group columns as ordinals into Probe's columns
	// followed by Build's: GroupBy[PrefixIdx] is the probe column the probe
	// stream is clustered by, every other one a build column.
	GroupBy   []int
	PrefixIdx int
	Sums      []GroupJoinSum

	schema     *types.Schema
	buildCols  []int // kept: the group columns but the prefix, then each sum's operand
	groupTypes []types.T
	span       *trace.Span
	pairs      int64 // joined pairs folded, for the span's pairs counter

	// Open takes the build from Build, as a prober.
	hashBuild
	ord  []int32 // ordinal of the build row rows[k], at k
	sums []sumState

	probeEvs             []expr.Evaluator
	probeKeys            []*vector.Vector
	ids                  []int32 // key id per row of in
	in                   *vector.Batch
	inPos, runEnd        int // runEnd ends the run of equal prefixes from runKey's row
	runKey, seg          segKey
	open, draining, eof  bool
	drainPos             int
	touched              []bool  // per ordinal, in the open segment
	order                []int32 // the touched ordinals in first-touch order,
	firstBuild, touchRow []int   // with their first pair's build row and probe row
	prefixVals           *vector.Vector
	out                  *vector.Batch
}

// GroupJoinSum is SUM(p * b) of probe column Probe and build column Build,
// both REAL or both DOUBLE.
type GroupJoinSum struct {
	Probe, Build int
	Name         string
}

// sumState is one sum's build operand, in chain order like ord, and this
// instance's accumulators; a group none of whose pairs had two non-NULL
// operands is not valid and sums to NULL.
type sumState struct {
	w     *vector.Vector
	acc   []float64
	valid []bool
}

// NewGroupJoin constructs a groupjoin. groupNames and the sums' names name
// the output columns: the group columns in GroupBy order, then the sums.
func NewGroupJoin(probe Operator, build *Build, probeKeys, buildKeys []expr.Expr, groupBy []int, groupNames []string, prefixIdx int, sums []GroupJoinSum) (*GroupJoin, error) {
	if err := promoteKeys(probeKeys, buildKeys); err != nil {
		return nil, err
	}
	if len(groupBy) != len(groupNames) || prefixIdx < 0 || prefixIdx >= len(groupBy) {
		return nil, fmt.Errorf("exec: groupjoin has %d group columns, %d names and prefix %d", len(groupBy), len(groupNames), prefixIdx)
	}
	j := &GroupJoin{Probe: probe, Build: build, ProbeKeys: probeKeys, BuildKeys: buildKeys,
		GroupBy: groupBy, PrefixIdx: prefixIdx, Sums: sums}
	both, np := probe.Schema().Concat(build.Input.Schema()), probe.Schema().Len()
	cols := make([]types.Column, len(groupBy))
	for i, c := range groupBy {
		if c < 0 || c >= both.Len() || (c < np) != (i == prefixIdx) {
			return nil, fmt.Errorf("exec: groupjoin group column %d: the prefix must be a probe column, the others build columns", c)
		}
		cols[i] = types.Column{Name: groupNames[i], Type: both.Col(c).Type}
		if i != prefixIdx {
			j.buildCols, j.groupTypes = append(j.buildCols, c-np), append(j.groupTypes, cols[i].Type)
		}
	}
	for _, s := range sums {
		t, bt := probe.Schema().Col(s.Probe).Type, build.Input.Schema().Col(s.Build).Type
		if t != bt || (t != types.Float32 && t != types.Float64) {
			return nil, fmt.Errorf("exec: groupjoin sum %s must multiply two REAL or two DOUBLE columns, got %s and %s", s.Name, t, bt)
		}
		cols = append(cols, types.Column{Name: s.Name, Type: t})
		j.buildCols = append(j.buildCols, s.Build)
	}
	j.schema = types.NewSchema(cols...)
	return j, nil
}

// Schema implements Operator.
func (j *GroupJoin) Schema() *types.Schema { return j.schema }

// SetSpan implements trace.SpanCarrier: Open labels the span with the key
// structure its probes read and Close adds the joined pairs folded to its
// pairs counter.
func (j *GroupJoin) SetSpan(sp *trace.Span) { j.span = sp }

// Open implements Operator: it opens the probe side and gets the key table,
// the build rows' group ordinals and the sums' operands from Build, building
// them if no other instance of the groupjoin has.
func (j *GroupJoin) Open() error {
	if err := j.Probe.Open(); err != nil {
		return err
	}
	b := j.Build
	err := b.run(func() (err error) {
		if b.hashBuild, err = buildHash(b.Input, j.BuildKeys, j.buildCols); err != nil {
			return err
		}
		ng, n := len(j.groupTypes), b.data.Len()
		groups, ords := newGroupTable(j.groupTypes, false), make([]int32, n)
		groups.stage(b.data.Vecs[:ng], n)
		groups.resolve(0, n, ords, true)
		b.ord = make([]int32, len(b.rows))
		for k, r := range b.rows {
			b.ord[k] = ords[r]
		}
		b.w = make([]*vector.Vector, len(j.Sums))
		for i := range b.w {
			b.w[i] = vector.New(b.data.Vecs[ng+i].Type(), 0)
			b.w[i].CopyFrom(b.data.Vecs[ng+i], b.rows)
		}
		b.groups = groups.len()
		return nil
	})
	if err != nil {
		return err
	}
	j.hashBuild, j.ord = b.hashBuild.prober(), b.ord
	j.labelKeys(j.span, j.BuildKeys)
	j.sums = make([]sumState, len(j.Sums))
	for i := range j.sums {
		j.sums[i] = sumState{w: b.w[i], acc: make([]float64, b.groups), valid: make([]bool, b.groups)}
	}
	j.touched = make([]bool, b.groups)
	j.probeEvs = expr.NewEvaluators(j.ProbeKeys)
	j.probeKeys = make([]*vector.Vector, len(j.ProbeKeys))
	j.prefixVals = vector.New(j.schema.Col(j.PrefixIdx).Type, 0)
	j.out = vector.NewBatch(j.schema, vector.Size)
	j.in, j.inPos = nil, 0
	j.open, j.draining, j.eof = false, false, false
	j.order, j.firstBuild, j.touchRow = j.order[:0], j.firstBuild[:0], j.touchRow[:0]
	return nil
}

// Next implements Operator: like SegmentedAggregate's, it returns a batch
// once vector.Size finished groups are ready or the input ends.
func (j *GroupJoin) Next() (*vector.Batch, error) {
	j.out.Reset()
	for {
		if j.draining {
			n := min(len(j.order)-j.drainPos, vector.Size-j.out.Len())
			j.emit(j.drainPos, j.drainPos+n)
			if j.drainPos += n; j.drainPos == len(j.order) {
				j.resetSegment()
			}
			if j.out.Len() == vector.Size {
				return j.out, nil
			}
		}
		if j.eof {
			if j.out.Len() == 0 {
				return nil, nil
			}
			return j.out, nil
		}
		if j.in == nil || j.inPos == j.in.Len() {
			if err := j.load(); err != nil {
				return nil, err
			}
			continue
		}
		// A probe row without a match yields no joined row, so it neither
		// opens nor closes a segment.
		for ; j.inPos < j.in.Len(); j.inPos++ {
			g := j.ids[j.inPos]
			if g < 0 {
				continue
			}
			if j.inPos >= j.runEnd {
				prefix := j.prefix()
				j.runEnd, j.runKey = runEnd(prefix, j.inPos), segKeyAt(prefix, j.inPos)
			}
			if j.open && j.runKey != j.seg {
				j.closeSegment()
				break
			}
			j.open, j.seg = true, j.runKey
			j.add(j.inPos, g)
		}
	}
}

func (j *GroupJoin) prefix() *vector.Vector { return j.in.Vecs[j.GroupBy[j.PrefixIdx]] }

// keepPrefixes copies the prefix values of the groups the loaded batch
// touched, before the probe may reuse it.
func (j *GroupJoin) keepPrefixes() {
	if len(j.touchRow) > 0 {
		j.prefixVals.AppendFrom(j.prefix(), j.touchRow)
		j.touchRow = j.touchRow[:0]
	}
}

// load takes the probe's next batch and looks its keys up.
func (j *GroupJoin) load() error {
	j.keepPrefixes()
	b, err := j.Probe.Next()
	if err != nil {
		return err
	}
	j.in, j.inPos, j.runEnd = b, 0, 0
	if b == nil {
		j.eof = true
		if j.open {
			j.closeSegment()
		}
		return nil
	}
	if err := evalInto(j.probeKeys, j.probeEvs, b); err != nil {
		return err
	}
	if len(j.ids) < b.Len() {
		j.ids = make([]int32, b.Len())
	}
	j.lookup(j.probeKeys, b.Len(), j.ids)
	return nil
}

// add folds the pairs of probe row p, whose key is g, into their groups.
func (j *GroupJoin) add(p int, g int32) {
	lo, hi := j.start[g], j.start[g+1]
	j.pairs += int64(hi - lo)
	ord := j.ord[lo:hi]
	// Once a segment has touched every group (a dense layer's first probe
	// row does), no match can touch another.
	if len(j.order) < len(j.touched) {
		touched, order, first, rows := j.touched, j.order, j.firstBuild, j.rows[lo:hi]
		for k, o := range ord {
			if !touched[o] {
				touched[o] = true
				order, first = append(order, o), append(first, rows[k])
				j.touchRow = append(j.touchRow, p)
			}
		}
		j.order, j.firstBuild = order, first
	}
	for i := range j.sums {
		s, x := &j.sums[i], j.in.Vecs[j.Sums[i].Probe]
		if x.NullAt(p) {
			continue
		}
		nulls := s.w.Nulls()
		if nulls != nil {
			nulls = nulls[lo:hi]
		}
		if x.Type() == types.Float32 {
			addProducts(s.acc, s.valid, ord, s.w.Float32s()[lo:hi], nulls, x.Float32s()[p])
		} else {
			addProducts(s.acc, s.valid, ord, s.w.Float64s()[lo:hi], nulls, x.Float64s()[p])
		}
	}
}

// addProducts adds x * w[k], rounded to T as the product of two T columns
// is, to acc[ord[k]] for every k whose w is not NULL.
func addProducts[T float32 | float64](acc []float64, valid []bool, ord []int32, w []T, nulls []bool, x T) {
	w = w[:len(ord)]
	if nulls == nil {
		for k, o := range ord {
			acc[o] += float64(T(x * w[k]))
			valid[o] = true
		}
		return
	}
	for k, o := range ord {
		if !nulls[k] {
			acc[o] += float64(T(x * w[k]))
			valid[o] = true
		}
	}
}

func (j *GroupJoin) closeSegment() {
	j.keepPrefixes()
	j.open, j.draining, j.drainPos = false, true, 0
}

// resetSegment drops the drained segment's groups, keeping the allocations.
func (j *GroupJoin) resetSegment() {
	for _, o := range j.order {
		j.touched[o] = false
		for i := range j.sums {
			j.sums[i].acc[o], j.sums[i].valid[o] = 0, false
		}
	}
	j.order, j.firstBuild, j.draining = j.order[:0], j.firstBuild[:0], false
	j.prefixVals.Reset()
}

// emit appends the segment's groups [lo, hi) to out.
func (j *GroupJoin) emit(lo, hi int) {
	b := 0
	for c := range j.GroupBy {
		if c == j.PrefixIdx {
			j.out.Vecs[c].AppendRange(j.prefixVals, lo, hi)
		} else {
			j.out.Vecs[c].AppendFrom(j.data.Vecs[b], j.firstBuild[lo:hi])
			b++
		}
	}
	for i := range j.sums {
		s, dst := &j.sums[i], j.out.Vecs[len(j.GroupBy)+i]
		at := dst.Len()
		dst.Resize(at + hi - lo)
		for k, o := range j.order[lo:hi] {
			switch {
			case !s.valid[o]:
				dst.SetNull(at + k)
			case dst.Type() == types.Float32:
				dst.Float32s()[at+k] = float32(s.acc[o])
			default:
				dst.Float64s()[at+k] = s.acc[o]
			}
		}
	}
	j.out.SetLen(j.out.Len() + hi - lo)
}

// Close implements Operator. The build input was closed by the build.
func (j *GroupJoin) Close() error {
	if j.span != nil {
		j.span.Counter("pairs").Add(j.pairs)
	}
	j.pairs = 0
	j.hashBuild, j.ord, j.sums, j.out, j.in, j.probeEvs = hashBuild{}, nil, nil, nil, nil, nil
	return j.Probe.Close()
}
