package exec

import (
	"fmt"

	"indbml/internal/engine/expr"
	"indbml/internal/engine/types"
	"indbml/internal/engine/vector"
)

// AggFunc identifies an aggregate function.
type AggFunc uint8

// Supported aggregate functions.
const (
	AggSum AggFunc = iota
	AggCount
	AggCountStar
	AggAvg
	AggMin
	AggMax
)

// ParseAggFunc resolves an aggregate function name.
func ParseAggFunc(name string) (AggFunc, bool) {
	switch name {
	case "SUM", "sum":
		return AggSum, true
	case "COUNT", "count":
		return AggCount, true
	case "AVG", "avg":
		return AggAvg, true
	case "MIN", "min":
		return AggMin, true
	case "MAX", "max":
		return AggMax, true
	}
	return 0, false
}

// AggSpec is one aggregate column: Func applied to Arg (nil for COUNT(*)).
type AggSpec struct {
	Func AggFunc
	Arg  expr.Expr
	Name string
}

// resultType returns the output type of the aggregate.
func (a AggSpec) resultType() types.T {
	switch a.Func {
	case AggCount, AggCountStar:
		return types.Int64
	case AggAvg:
		return types.Float64
	default:
		return a.Arg.Type()
	}
}

// accumulator holds one aggregate's state for every group, indexed by dense
// group id, and is updated a column at a time. Sums accumulate in float64
// (int64 for integer arguments) for numeric stability — as analytical
// engines widen accumulators — in the order rows arrive, and are narrowed to
// the output type on emit. MIN/MAX keep their running extreme in the slice
// matching the argument type.
type accumulator struct {
	spec  AggSpec
	count []int64 // non-NULL inputs per group (rows, for COUNT(*))
	f     []float64
	i     []int64
	s     []string
}

// resize sets the number of groups to n; new groups start empty.
func (a *accumulator) resize(n int) {
	a.count = resizeZero(a.count, n)
	if a.spec.Arg == nil {
		return
	}
	switch t := a.spec.Arg.Type(); {
	case t == types.String:
		a.s = resizeZero(a.s, n)
	case t == types.Float32 || t == types.Float64:
		a.f = resizeZero(a.f, n)
	default:
		a.i = resizeZero(a.i, n)
	}
}

// resizeZero returns s with length n, zeroing any elements past its old
// length and growing geometrically.
func resizeZero[T any](s []T, n int) []T {
	old := len(s)
	if n > cap(s) {
		s = append(s[:cap(s)], make([]T, max(n, 2*cap(s))-cap(s))...)
	}
	s = s[:n]
	if n > old {
		clear(s[old:])
	}
	return s
}

// update folds rows [lo, hi) of v into the groups ids[lo:hi] names.
func (a *accumulator) update(ids []int32, v *vector.Vector, lo, hi int) {
	ids = ids[lo:hi]
	if a.spec.Func == AggCountStar {
		for _, g := range ids {
			a.count[g]++
		}
		return
	}
	var nulls []bool
	if v.HasNulls() {
		nulls = v.Nulls()[lo:hi]
	}
	switch a.spec.Func {
	case AggCount:
		for r, g := range ids {
			if nulls == nil || !nulls[r] {
				a.count[g]++
			}
		}
	case AggSum, AggAvg:
		switch v.Type() {
		case types.Int32:
			sumInto(a.i, a.count, ids, v.Int32s()[lo:hi], nulls)
		case types.Int64:
			sumInto(a.i, a.count, ids, v.Int64s()[lo:hi], nulls)
		case types.Float32:
			sumInto(a.f, a.count, ids, v.Float32s()[lo:hi], nulls)
		case types.Float64:
			sumInto(a.f, a.count, ids, v.Float64s()[lo:hi], nulls)
		}
	case AggMin, AggMax:
		isMax := a.spec.Func == AggMax
		switch v.Type() {
		case types.Bool:
			for r, x := range v.Bools()[lo:hi] {
				if nulls != nil && nulls[r] {
					continue
				}
				g, b := ids[r], int64(0)
				if x {
					b = 1
				}
				if a.count[g] == 0 || (isMax && b > a.i[g]) || (!isMax && b < a.i[g]) {
					a.i[g] = b
				}
				a.count[g]++
			}
		case types.Int32:
			keepExtreme(a.i, a.count, ids, v.Int32s()[lo:hi], nulls, isMax)
		case types.Int64:
			keepExtreme(a.i, a.count, ids, v.Int64s()[lo:hi], nulls, isMax)
		case types.Float32:
			keepExtreme(a.f, a.count, ids, v.Float32s()[lo:hi], nulls, isMax)
		case types.Float64:
			keepExtreme(a.f, a.count, ids, v.Float64s()[lo:hi], nulls, isMax)
		case types.String:
			for r, x := range v.Strings()[lo:hi] {
				if nulls != nil && nulls[r] {
					continue
				}
				g := ids[r]
				if a.count[g] == 0 || (isMax && x > a.s[g]) || (!isMax && x < a.s[g]) {
					a.s[g] = x
				}
				a.count[g]++
			}
		}
	}
}

func sumInto[A int64 | float64, T int32 | int64 | float32 | float64](acc []A, count []int64, ids []int32, vals []T, nulls []bool) {
	if nulls == nil {
		for r, g := range ids {
			acc[g] += A(vals[r])
			count[g]++
		}
		return
	}
	for r, g := range ids {
		if !nulls[r] {
			acc[g] += A(vals[r])
			count[g]++
		}
	}
}

func keepExtreme[A int64 | float64, T int32 | int64 | float32 | float64](acc []A, count []int64, ids []int32, vals []T, nulls []bool, isMax bool) {
	for r, g := range ids {
		if nulls != nil && nulls[r] {
			continue
		}
		x := A(vals[r])
		if count[g] == 0 || (isMax && x > acc[g]) || (!isMax && x < acc[g]) {
			acc[g] = x
		}
		count[g]++
	}
}

// merge folds src's one group into a's: counts and sums add, and MIN and
// MAX compare src's extreme as one more row.
func (a *accumulator) merge(src *accumulator) {
	if src.count[0] == 0 {
		return
	}
	first, isMax := a.count[0] == 0, a.spec.Func == AggMax
	switch a.spec.Func {
	case AggSum, AggAvg:
		if a.f != nil {
			a.f[0] += src.f[0]
		} else {
			a.i[0] += src.i[0]
		}
	case AggMin, AggMax:
		switch {
		case a.f != nil:
			mergeExtreme(a.f, src.f, first, isMax)
		case a.s != nil:
			mergeExtreme(a.s, src.s, first, isMax)
		default:
			mergeExtreme(a.i, src.i, first, isMax)
		}
	}
	a.count[0] += src.count[0]
}

func mergeExtreme[T int64 | float64 | string](acc, src []T, first, isMax bool) {
	if x := src[0]; first || (isMax && x > acc[0]) || (!isMax && x < acc[0]) {
		acc[0] = x
	}
}

// emit appends the results of groups [lo, hi) to dst with typed writes.
func (a *accumulator) emit(dst *vector.Vector, lo, hi int) {
	at := dst.Len()
	dst.Resize(at + hi - lo)
	count := a.count[lo:hi]
	switch a.spec.Func {
	case AggCount, AggCountStar:
		copy(dst.Int64s()[at:], count)
		return
	case AggAvg:
		out := dst.Float64s()[at:]
		if a.spec.Arg.Type().IsInteger() {
			for i, x := range a.i[lo:hi] {
				out[i] = float64(x) / float64(count[i])
			}
		} else {
			for i, x := range a.f[lo:hi] {
				out[i] = x / float64(count[i])
			}
		}
	default:
		switch dst.Type() {
		case types.Bool:
			out := dst.Bools()[at:]
			for i, x := range a.i[lo:hi] {
				out[i] = x != 0
			}
		case types.Int32:
			out := dst.Int32s()[at:]
			for i, x := range a.i[lo:hi] {
				out[i] = int32(x)
			}
		case types.Int64:
			copy(dst.Int64s()[at:], a.i[lo:hi])
		case types.Float32:
			out := dst.Float32s()[at:]
			for i, x := range a.f[lo:hi] {
				out[i] = float32(x)
			}
		case types.Float64:
			copy(dst.Float64s()[at:], a.f[lo:hi])
		case types.String:
			copy(dst.Strings()[at:], a.s[lo:hi])
		}
	}
	for i, c := range count {
		if c == 0 {
			dst.SetNull(at + i) // SUM/AVG/MIN/MAX over no non-NULL input
		}
	}
}

// aggSchema builds the output schema: group columns then aggregate columns.
func aggSchema(groupBy []expr.Expr, groupNames []string, aggs []AggSpec) (*types.Schema, error) {
	if len(groupBy) != len(groupNames) {
		return nil, fmt.Errorf("exec: %d group expressions but %d names", len(groupBy), len(groupNames))
	}
	cols := make([]types.Column, 0, len(groupBy)+len(aggs))
	for i, g := range groupBy {
		cols = append(cols, types.Column{Name: groupNames[i], Type: g.Type()})
	}
	for _, a := range aggs {
		if a.Func != AggCountStar && a.Arg == nil {
			return nil, fmt.Errorf("exec: aggregate %s requires an argument", a.Name)
		}
		if (a.Func == AggSum || a.Func == AggAvg) && !a.Arg.Type().IsNumeric() {
			return nil, fmt.Errorf("exec: aggregate %s requires a numeric argument, got %s", a.Name, a.Arg.Type())
		}
		cols = append(cols, types.Column{Name: a.Name, Type: a.resultType()})
	}
	return types.NewSchema(cols...), nil
}

// grouper is what the two grouping operators share: the key table numbering
// the groups, the first-seen key values per group, and one accumulator per
// aggregate. An operator loads an input batch, adds row ranges of it, and
// emits ranges of finished groups.
type grouper struct {
	keyEvs  []expr.Evaluator
	argEvs  []expr.Evaluator // per aggregate; unused for COUNT(*)
	table   *groupTable      // nil for a scalar aggregate: one group, always
	prefix  int              // group column left out of the table, or -1
	keyVals []*vector.Vector
	accs    []accumulator

	// The loaded input batch; staged is keys without the prefix column.
	keys, args, staged []*vector.Vector
	ids                []int32
}

// newGrouper builds the grouper of groupBy and aggs. A prefix >= 0 names a
// group column that is constant over every row range the caller adds
// between two resets (SegmentedAggregate's clustered column): the table
// keys on the other columns, and the prefix's value is still emitted from
// each group's first row.
func newGrouper(groupBy []expr.Expr, aggs []AggSpec, prefix int) *grouper {
	g := &grouper{
		prefix:  prefix,
		keyEvs:  expr.NewEvaluators(groupBy),
		argEvs:  make([]expr.Evaluator, len(aggs)),
		keyVals: make([]*vector.Vector, len(groupBy)),
		accs:    make([]accumulator, len(aggs)),
		keys:    make([]*vector.Vector, len(groupBy)),
		args:    make([]*vector.Vector, len(aggs)),
		ids:     zeroIDs[:],
	}
	for i, e := range groupBy {
		g.keyVals[i] = vector.New(e.Type(), 0)
	}
	for i, a := range aggs {
		g.accs[i].spec = a
		g.argEvs[i] = expr.NewEvaluator(a.Arg)
	}
	if len(groupBy) > 0 {
		keyTypes := exprTypes(groupBy)
		g.staged = g.keys
		if prefix >= 0 {
			keyTypes = append(keyTypes[:prefix], keyTypes[prefix+1:]...)
			g.staged = make([]*vector.Vector, 0, len(keyTypes))
		}
		g.table = newGroupTable(keyTypes, false)
		g.ids = make([]int32, vector.Size)
	} else {
		// A scalar aggregate has its one group from the start, so an empty
		// input still yields one row (COUNT = 0, SUM = NULL), per SQL.
		g.resize(1)
	}
	return g
}

// groups returns the number of groups held.
func (g *grouper) groups() int {
	if g.table == nil {
		return 1
	}
	return g.table.len()
}

func (g *grouper) resize(n int) {
	for i := range g.accs {
		g.accs[i].resize(n)
	}
}

// reset drops every group, keeping the allocations.
func (g *grouper) reset() {
	g.table.reset()
	for _, v := range g.keyVals {
		v.Reset()
	}
	g.resize(0)
}

// load evaluates the key and argument expressions over b and stages the
// keys. b must stay unchanged until the last add of its rows; the key and
// argument vectors, which the grouper's evaluators own, do until the next
// load.
func (g *grouper) load(b *vector.Batch) error {
	if err := evalInto(g.keys, g.keyEvs, b); err != nil {
		return err
	}
	for i := range g.accs {
		if g.accs[i].spec.Arg != nil {
			v, err := g.argEvs[i].Eval(b)
			if err != nil {
				return err
			}
			g.args[i] = v
		}
	}
	if len(g.ids) < b.Len() {
		g.ids = make([]int32, b.Len())
	}
	if g.table != nil {
		if g.prefix >= 0 {
			g.staged = append(append(g.staged[:0], g.keys[:g.prefix]...), g.keys[g.prefix+1:]...)
		}
		g.table.stage(g.staged, b.Len())
	}
	return nil
}

// add folds rows [lo, hi) of the loaded batch into their groups.
func (g *grouper) add(lo, hi int) {
	if g.table != nil {
		g.table.resolve(lo, hi, g.ids, true)
		if added := g.table.added; len(added) > 0 {
			for c, kv := range g.keyVals {
				kv.AppendFrom(g.keys[c], added)
			}
			g.resize(g.table.len())
		}
	}
	for i := range g.accs {
		g.accs[i].update(g.ids, g.args[i], lo, hi)
	}
}

// emit appends groups [lo, hi) to out: key columns, then aggregates.
func (g *grouper) emit(out *vector.Batch, lo, hi int) {
	for c, kv := range g.keyVals {
		out.Vecs[c].AppendRange(kv, lo, hi)
	}
	base := len(g.keyVals)
	for i := range g.accs {
		g.accs[i].emit(out.Vecs[base+i], lo, hi)
	}
	out.SetLen(out.Len() + hi - lo)
}

// zeroIDs names group 0 for every row of a batch of a scalar aggregate.
var zeroIDs [vector.Size]int32

// HashAggregate is the generic grouping operator: it materializes a group
// table over the full input — a pipeline breaker, which is exactly the
// memory-footprint cost of ML-To-SQL the paper discusses (Sec. 4.4), and
// what SegmentedAggregate removes.
type HashAggregate struct {
	Child      Operator
	GroupBy    []expr.Expr
	GroupNames []string
	Aggs       []AggSpec

	schema  *types.Schema
	g       *grouper
	out     *vector.Batch
	emitPos int
	// partials, part and final split a global aggregate (see Partials).
	partials *Partials
	part     int
	final    bool
	// PeakGroups is exposed for the memory experiments: the number of
	// simultaneously held groups.
	PeakGroups int
}

// NewHashAggregate constructs a hash aggregation.
func NewHashAggregate(child Operator, groupBy []expr.Expr, groupNames []string, aggs []AggSpec) (*HashAggregate, error) {
	schema, err := aggSchema(groupBy, groupNames, aggs)
	if err != nil {
		return nil, err
	}
	return &HashAggregate{Child: child, GroupBy: groupBy, GroupNames: groupNames, Aggs: aggs, schema: schema}, nil
}

// Partials carries a global aggregate's state from its partials, one
// HashAggregate per partition instance under an Exchange, to the final
// HashAggregate above it. A partial emits no rows: it leaves its scalar
// accumulators in its partition's slot. Once the Exchange has drained, the
// final merges the slots in partition order, so a result's bits never
// depend on scheduling.
type Partials struct{ accs [][]accumulator }

// NewPartials makes the slots of n partitions.
func NewPartials(n int) *Partials { return &Partials{accs: make([][]accumulator, n)} }

// partialSchema is the schema of a partial, which emits no rows.
var partialSchema = types.NewSchema()

// NewPartialAggregate constructs partition part's share of a global
// aggregate.
func NewPartialAggregate(child Operator, aggs []AggSpec, p *Partials, part int) *HashAggregate {
	return &HashAggregate{Child: child, Aggs: aggs, schema: partialSchema, partials: p, part: part}
}

// NewFinalAggregate constructs the merge of aggs' partials.
func NewFinalAggregate(child Operator, aggs []AggSpec, p *Partials) (*HashAggregate, error) {
	h, err := NewHashAggregate(child, nil, nil, aggs)
	if err == nil {
		h.partials, h.final = p, true
	}
	return h, err
}

// Schema implements Operator.
func (h *HashAggregate) Schema() *types.Schema { return h.schema }

// Open implements Operator: it consumes the entire child input.
func (h *HashAggregate) Open() error {
	if err := h.Child.Open(); err != nil {
		return err
	}
	h.g = newGrouper(h.GroupBy, h.Aggs, -1)
	h.out = vector.NewBatch(h.schema, 0)
	h.emitPos = 0
	for {
		b, err := h.Child.Next()
		if err != nil {
			return err
		}
		if b == nil {
			break
		}
		if err := h.g.load(b); err != nil {
			return err
		}
		h.g.add(0, b.Len())
	}
	switch {
	case h.final:
		for _, accs := range h.partials.accs {
			for i := range accs {
				h.g.accs[i].merge(&accs[i])
			}
		}
	case h.partials != nil:
		h.partials.accs[h.part], h.emitPos = h.g.accs, 1 // emits nothing
	}
	h.PeakGroups = h.g.groups()
	return nil
}

// Next implements Operator, emitting the materialized groups a batch at a
// time.
func (h *HashAggregate) Next() (*vector.Batch, error) {
	n := min(h.g.groups()-h.emitPos, vector.Size)
	if n <= 0 {
		return nil, nil
	}
	h.out.Reset()
	h.g.emit(h.out, h.emitPos, h.emitPos+n)
	h.emitPos += n
	return h.out, nil
}

// Close implements Operator.
func (h *HashAggregate) Close() error {
	h.g, h.out = nil, nil
	return h.Child.Close()
}
