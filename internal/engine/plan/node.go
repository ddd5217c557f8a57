package plan

import (
	"context"
	"fmt"
	"slices"
	"strings"

	"indbml/internal/core/modeljoin"
	"indbml/internal/core/relmodel"
	"indbml/internal/engine/exec"
	"indbml/internal/engine/expr"
	"indbml/internal/engine/storage"
	"indbml/internal/engine/types"
	"indbml/internal/trace"
)

// props are the physical properties the optimizer tracks bottom-up:
//
//   - clustered: output ordinal the stream is clustered by (rows with equal
//     values are contiguous), or -1. Fuel for the pipelined segmented
//     aggregation of Sec. 4.4. A float column's order is Datum.Compare's,
//     which leaves NaN anywhere, so segmentPrefix does not trust it.
//   - partTable/partCol: when >= 0, output column partCol carries the unique
//     key of partitioned table partTable, meaning rows with equal values
//     can never meet across partition plan instances. Grouping on such a
//     column is partition-aligned, so the paper's "no repartitioning is
//     necessary" parallelization applies.
type props struct {
	clustered int
	partTable *storage.Table
	partCol   int
}

func noProps() props { return props{clustered: -1, partCol: -1} }

// buildCtx parameterizes physical plan construction: the driver table is
// scanned one partition per plan instance; every other table is read fully
// (the "model table is shared/replicated between threads" of Sec. 4.4).
type buildCtx struct {
	cat       Catalog
	driver    *storage.Table
	partition int // -1 = scan all partitions
	// qctx is the query's cancellation context; it is attached to every
	// Scan so cancellation reaches the leaves of the operator tree.
	qctx context.Context
	// The maps below are shared across partition plan instances. spans maps
	// logical nodes to their trace spans, so the instances of one logical
	// node record into one span (all span mutation is atomic). snaps holds
	// the one snapshot of each table every scan of the statement reads.
	// builds holds the build of each join whose build side scans no driver
	// table: its operator tree is constructed once and built once for all
	// instances.
	spans  map[node]*trace.Span
	snaps  map[*storage.Table]*storage.Snapshot
	builds map[*joinNode]*exec.Build
	// partials carries the split global aggregate's state (splitGlobalAgg).
	partials *exec.Partials
}

// snapshot returns the statement's snapshot of t.
func (ctx *buildCtx) snapshot(t *storage.Table) *storage.Snapshot {
	s := ctx.snaps[t]
	if s == nil {
		s = t.Snapshot()
		ctx.snaps[t] = s
	}
	return s
}

// buildSide returns the build of j, whose build input is side: the plan's
// one build of j when side scans no driver table, else one of this
// instance's own.
func (ctx *buildCtx) buildSide(j *joinNode, side node) (*exec.Build, error) {
	if b := ctx.builds[j]; b != nil {
		return b, nil
	}
	op, err := ctx.build(side)
	if err != nil {
		return nil, err
	}
	b := exec.NewBuild(op)
	if !containsTable(side, ctx.driver) {
		ctx.builds[j] = b
	}
	return b, nil
}

// build constructs n's physical operator, hands span-aware operators their
// span and wraps the result in an exec.Traced recorder. All child
// construction inside node build methods goes through here.
func (ctx *buildCtx) build(n node) (exec.Operator, error) {
	op, err := n.build(ctx)
	if err != nil {
		return op, err
	}
	// Operators that consult the statement context mid-execution — the
	// ModelJoin submits to the inference scheduler with it, whose
	// cancellation ends a wait there — receive it here.
	if c, ok := op.(interface{ SetQueryContext(context.Context) }); ok {
		c.SetQueryContext(ctx.qctx)
	}
	sp := ctx.spans[n]
	if c, ok := op.(trace.SpanCarrier); ok {
		c.SetSpan(sp)
	}
	return exec.NewTraced(op, sp), nil
}

// node is a bound logical plan node.
type node interface {
	scope() *scope
	props() props
	build(ctx *buildCtx) (exec.Operator, error)
	children() []node
	describe() string
}

// walk visits the tree pre-order.
func walk(n node, fn func(node)) {
	fn(n)
	for _, c := range n.children() {
		walk(c, fn)
	}
}

// containsTable reports whether the subtree scans t.
func containsTable(n node, t *storage.Table) bool {
	found := false
	walk(n, func(m node) {
		if s, ok := m.(*scanNode); ok && s.table == t {
			found = true
		}
	})
	return found
}

// --- scan ---

type scanNode struct {
	table *storage.Table
	alias string
	sc    *scope
	// zone-map filters attached by predicate pushdown.
	zoneFilters []storage.RangeFilter
	// proj lists the table columns the scan decodes, set by column pruning;
	// nil reads them all.
	proj []int
}

func newScanNode(t *storage.Table, alias string) *scanNode {
	sc := &scope{}
	for i := 0; i < t.Schema.Len(); i++ {
		sc.cols = append(sc.cols, scopeCol{
			qual: strings.ToLower(alias),
			name: strings.ToLower(t.Schema.Col(i).Name),
			typ:  t.Schema.Col(i).Type,
		})
	}
	return &scanNode{table: t, alias: alias, sc: sc}
}

func (s *scanNode) scope() *scope    { return s.sc }
func (s *scanNode) children() []node { return nil }

// ordinal returns the output position of table column c, or -1 when c is
// negative or pruned away.
func (s *scanNode) ordinal(c int) int {
	if s.proj == nil {
		return c
	}
	return slices.Index(s.proj, c)
}

func (s *scanNode) props() props {
	p := noProps()
	p.clustered = s.ordinal(s.table.SortedBy())
	if uk := s.ordinal(s.table.UniqueKey()); uk >= 0 && s.table.Partitions() > 1 {
		p.partTable, p.partCol = s.table, uk
	}
	return p
}

func (s *scanNode) build(ctx *buildCtx) (exec.Operator, error) {
	snap := ctx.snapshot(s.table)
	if ctx.driver == s.table && ctx.partition >= 0 {
		sc, err := exec.NewScan(snap, ctx.partition, s.proj, s.zoneFilters)
		if err != nil {
			return nil, err
		}
		sc.Ctx = ctx.qctx
		return sc, nil
	}
	scans := make([]exec.Operator, snap.Partitions())
	for p := range scans {
		sc, err := exec.NewScan(snap, p, s.proj, s.zoneFilters)
		if err != nil {
			return nil, err
		}
		sc.Ctx = ctx.qctx
		scans[p] = sc
	}
	if len(scans) == 1 {
		return scans[0], nil
	}
	return exec.NewUnionAll(scans...), nil
}

func (s *scanNode) describe() string {
	d := fmt.Sprintf("Scan %s", s.table.Name)
	if len(s.zoneFilters) > 0 {
		d += fmt.Sprintf(" [%d zone-map filters]", len(s.zoneFilters))
	}
	if s.proj != nil {
		d += fmt.Sprintf(" [%d of %d columns]", len(s.proj), s.table.Schema.Len())
	}
	return d
}

// --- filter ---

type filterNode struct {
	child node
	pred  expr.Expr
}

func (f *filterNode) scope() *scope    { return f.child.scope() }
func (f *filterNode) props() props     { return f.child.props() }
func (f *filterNode) children() []node { return []node{f.child} }

func (f *filterNode) build(ctx *buildCtx) (exec.Operator, error) {
	c, err := ctx.build(f.child)
	if err != nil {
		return nil, err
	}
	return exec.NewFilter(c, f.pred)
}

func (f *filterNode) describe() string { return fmt.Sprintf("Filter %s", f.pred) }

// --- project ---

type projectNode struct {
	child node
	exprs []expr.Expr
	names []string
	sc    *scope
}

func newProjectNode(child node, exprs []expr.Expr, names []string) *projectNode {
	sc := &scope{}
	for i, e := range exprs {
		sc.cols = append(sc.cols, scopeCol{name: strings.ToLower(names[i]), typ: e.Type()})
	}
	return &projectNode{child: child, exprs: exprs, names: names, sc: sc}
}

func (p *projectNode) scope() *scope    { return p.sc }
func (p *projectNode) children() []node { return []node{p.child} }

func (p *projectNode) props() props {
	cp := p.child.props()
	out := noProps()
	for i, e := range p.exprs {
		if cr, ok := e.(*expr.ColRef); ok {
			if cr.Idx == cp.clustered && out.clustered < 0 {
				out.clustered = i
			}
			if cp.partCol >= 0 && cr.Idx == cp.partCol && out.partCol < 0 {
				out.partTable, out.partCol = cp.partTable, i
			}
		}
	}
	return out
}

func (p *projectNode) build(ctx *buildCtx) (exec.Operator, error) {
	c, err := ctx.build(p.child)
	if err != nil {
		return nil, err
	}
	return exec.NewProject(c, p.exprs, p.names)
}

func (p *projectNode) describe() string {
	parts := make([]string, len(p.exprs))
	for i, e := range p.exprs {
		parts[i] = fmt.Sprintf("%s AS %s", e, p.names[i])
	}
	return "Project " + strings.Join(parts, ", ")
}

// --- join ---

type joinNode struct {
	left, right         node
	leftKeys, rightKeys []expr.Expr
	buildRight          bool
	sc                  *scope
	// keep lists the output columns as ordinals into left's columns followed
	// by right's, set by column pruning; nil outputs them all.
	keep []int
}

func newJoinNode(left, right node, leftKeys, rightKeys []expr.Expr, buildRight bool) *joinNode {
	return &joinNode{
		left: left, right: right,
		leftKeys: leftKeys, rightKeys: rightKeys,
		buildRight: buildRight,
		sc:         left.scope().concat(right.scope()),
	}
}

func (j *joinNode) scope() *scope    { return j.sc }
func (j *joinNode) children() []node { return []node{j.left, j.right} }

func (j *joinNode) props() props {
	// The probe side streams, so its clustering and partition alignment
	// survive; build-side columns offer no guarantees.
	out := noProps()
	probe, off := j.left, 0
	if !j.buildRight {
		probe, off = j.right, width(j.left)
	}
	pp := probe.props()
	if pp.clustered >= 0 {
		out.clustered = j.ordinal(off + pp.clustered)
	}
	if c := j.ordinal(off + pp.partCol); pp.partCol >= 0 && c >= 0 {
		out.partTable, out.partCol = pp.partTable, c
	}
	return out
}

// probeBuild returns the ordinal in probe ++ build of output column c.
func (j *joinNode) probeBuild(c int) int {
	if j.keep != nil {
		c = j.keep[c]
	}
	if j.buildRight {
		return c
	}
	return (c + width(j.right)) % (width(j.left) + width(j.right))
}

// ordinal returns the output position of column c of left ++ right, or -1
// when pruning dropped it.
func (j *joinNode) ordinal(c int) int {
	if j.keep == nil {
		return c
	}
	return slices.Index(j.keep, c)
}

func (j *joinNode) build(ctx *buildCtx) (exec.Operator, error) {
	probe, b, probeKeys, buildKeys, err := j.buildInputs(ctx)
	if err != nil {
		return nil, err
	}
	return exec.NewHashJoin(probe, b, probeKeys, buildKeys, j.buildRight, j.keep)
}

// buildInputs constructs the join's probe input and gets its build, and
// returns the keys of each.
func (j *joinNode) buildInputs(ctx *buildCtx) (exec.Operator, *exec.Build, []expr.Expr, []expr.Expr, error) {
	probeSide, buildSide, probeKeys, buildKeys := j.left, j.right, j.leftKeys, j.rightKeys
	if !j.buildRight {
		probeSide, buildSide, probeKeys, buildKeys = buildSide, probeSide, buildKeys, probeKeys
	}
	probe, err := ctx.build(probeSide)
	if err != nil {
		return nil, nil, nil, nil, err
	}
	b, err := ctx.buildSide(j, buildSide)
	return probe, b, probeKeys, buildKeys, err
}

func (j *joinNode) describe() string {
	if len(j.leftKeys) == 0 {
		return "CrossJoin"
	}
	keys := make([]string, len(j.leftKeys))
	for i := range j.leftKeys {
		keys[i] = fmt.Sprintf("%s = %s", j.leftKeys[i], j.rightKeys[i])
	}
	side := "right"
	if !j.buildRight {
		side = "left"
	}
	return fmt.Sprintf("HashJoin (%s) [build %s]", strings.Join(keys, " AND "), side)
}

// --- aggregate ---

type aggNode struct {
	child      node
	groupExprs []expr.Expr
	groupNames []string
	aggs       []exec.AggSpec
	sc         *scope
	// forceHash disables the segmented rewrite (used by ablations).
	forceHash bool
	// gjGroupBy and gjSums, set by physical (planGroupJoin), run the
	// aggregate and the join below it as one exec.GroupJoin.
	gjGroupBy []int
	gjSums    []exec.GroupJoinSum
	// partial and final, set by splitGlobalAgg, split a global aggregate
	// around an Exchange.
	partial, final bool
}

func newAggNode(child node, groupExprs []expr.Expr, groupNames []string, aggs []exec.AggSpec) *aggNode {
	sc := &scope{}
	for i, g := range groupExprs {
		sc.cols = append(sc.cols, scopeCol{name: strings.ToLower(groupNames[i]), typ: g.Type()})
	}
	for _, a := range aggs {
		t := types.Int64
		switch a.Func {
		case exec.AggSum, exec.AggMin, exec.AggMax:
			t = a.Arg.Type()
		case exec.AggAvg:
			t = types.Float64
		}
		sc.cols = append(sc.cols, scopeCol{name: strings.ToLower(a.Name), typ: t})
	}
	return &aggNode{child: child, groupExprs: groupExprs, groupNames: groupNames, aggs: aggs, sc: sc}
}

func (a *aggNode) scope() *scope { return a.sc }

// children are the join's inputs when the aggregate runs as a groupjoin:
// the join has no operator and no span of its own.
func (a *aggNode) children() []node {
	if a.gjGroupBy != nil {
		return a.child.children()
	}
	return []node{a.child}
}

// segmentPrefix returns the index within groupExprs of a bare column
// reference to the child's clustered column, or -1. A REAL or DOUBLE column
// never qualifies: Sort and SORTED BY order floats by Datum.Compare, under
// which NaN equals every number, so rows of one key (1, NaN, 1) need not be
// contiguous, and the segmented aggregate would split their group.
func (a *aggNode) segmentPrefix() int {
	if a.forceHash {
		return -1
	}
	cp := a.child.props()
	if cp.clustered < 0 {
		return -1
	}
	for i, g := range a.groupExprs {
		if cr, ok := g.(*expr.ColRef); ok && cr.Idx == cp.clustered {
			if t := cr.Type(); t == types.Float32 || t == types.Float64 {
				return -1
			}
			return i
		}
	}
	return -1
}

func (a *aggNode) props() props {
	out := noProps()
	if pi := a.segmentPrefix(); pi >= 0 {
		out.clustered = pi // segment aggregation emits segments in order
	}
	cp := a.child.props()
	if cp.partCol >= 0 {
		for i, g := range a.groupExprs {
			if cr, ok := g.(*expr.ColRef); ok && cr.Idx == cp.partCol {
				out.partTable, out.partCol = cp.partTable, i
				break
			}
		}
	}
	return out
}

// aligned reports whether the aggregation groups by a partition-aligned
// column of the given driver table.
func (a *aggNode) aligned(driver *storage.Table) bool {
	cp := a.child.props()
	if cp.partTable != driver || cp.partCol < 0 {
		return false
	}
	for _, g := range a.groupExprs {
		if cr, ok := g.(*expr.ColRef); ok && cr.Idx == cp.partCol {
			return true
		}
	}
	return false
}

// planGroupJoin sets gjGroupBy and gjSums when the aggregate and the join
// below it can run as one exec.GroupJoin: a segmented aggregate over a keyed
// join whose build side does not scan the driver, grouped by its probe-side
// prefix and bare build columns, computing only SUMs of a probe column times
// a build column, both REAL or both DOUBLE (a dense layer of ML-To-SQL,
// Listing 4). Any other shape keeps the join and the aggregate.
func (a *aggNode) planGroupJoin(driver *storage.Table) {
	pi := a.segmentPrefix()
	j, ok := a.child.(*joinNode)
	if pi < 0 || !ok || len(j.leftKeys) == 0 {
		return
	}
	probe, build := j.left, j.right
	if !j.buildRight {
		probe, build = build, probe
	}
	if containsTable(build, driver) {
		return
	}
	// col returns the probe ++ build ordinal of a bare column of the side
	// asked for, or -1.
	np := width(probe)
	col := func(e expr.Expr, onBuild bool) int {
		if cr, ok := e.(*expr.ColRef); ok {
			if c := j.probeBuild(cr.Idx); (c >= np) == onBuild {
				return c
			}
		}
		return -1
	}
	groupBy := make([]int, len(a.groupExprs))
	for i, g := range a.groupExprs {
		if groupBy[i] = col(g, i != pi); groupBy[i] < 0 {
			return
		}
	}
	sums := make([]exec.GroupJoinSum, len(a.aggs))
	for i, s := range a.aggs {
		m, ok := s.Arg.(*expr.BinOp)
		if s.Func != exec.AggSum || !ok || m.Op != expr.OpMul || (m.Type() != types.Float32 && m.Type() != types.Float64) {
			return
		}
		x, w := m.L, m.R
		if col(x, false) < 0 {
			x, w = w, x
		}
		p, b := col(x, false), col(w, true)
		if p < 0 || b < 0 {
			return
		}
		sums[i] = exec.GroupJoinSum{Probe: p, Build: b - np, Name: s.Name}
	}
	a.gjGroupBy, a.gjSums = groupBy, sums
}

func (a *aggNode) build(ctx *buildCtx) (exec.Operator, error) {
	if a.gjGroupBy != nil {
		probe, b, probeKeys, buildKeys, err := a.child.(*joinNode).buildInputs(ctx)
		if err != nil {
			return nil, err
		}
		return exec.NewGroupJoin(probe, b, probeKeys, buildKeys, a.gjGroupBy, a.groupNames, a.segmentPrefix(), a.gjSums)
	}
	if a.final {
		ctx.partials = exec.NewPartials(a.child.(*exchangeNode).driver.Partitions())
	}
	c, err := ctx.build(a.child)
	if err != nil {
		return nil, err
	}
	switch {
	case a.partial:
		return exec.NewPartialAggregate(c, a.aggs, ctx.partials, ctx.partition), nil
	case a.final:
		return exec.NewFinalAggregate(c, a.aggs, ctx.partials)
	}
	if pi := a.segmentPrefix(); pi >= 0 {
		return exec.NewSegmentedAggregate(c, a.groupExprs, a.groupNames, a.aggs, pi)
	}
	return exec.NewHashAggregate(c, a.groupExprs, a.groupNames, a.aggs)
}

func (a *aggNode) describe() string {
	kind := "HashAggregate"
	switch {
	case a.gjGroupBy != nil:
		kind = "SegmentedAggregate (groupjoin)"
	case a.segmentPrefix() >= 0:
		kind = "SegmentedAggregate (pipelined)"
	case a.partial:
		kind = "HashAggregate (partial)"
	case a.final:
		kind = "HashAggregate (final)"
	}
	groups := make([]string, len(a.groupExprs))
	for i, g := range a.groupExprs {
		groups[i] = g.String()
	}
	aggs := make([]string, len(a.aggs))
	for i, s := range a.aggs {
		aggs[i] = s.Name
	}
	d := fmt.Sprintf("%s by [%s] aggs [%s]", kind, strings.Join(groups, ", "), strings.Join(aggs, ", "))
	if a.gjGroupBy != nil {
		d += " on " + strings.TrimPrefix(a.child.describe(), "HashJoin ")
	}
	return d
}

// --- exchange ---

// exchangeNode runs its child as one private plan instance per partition of
// the driver table (Sec. 4.4/5.2) and merges their outputs.
type exchangeNode struct {
	child       node
	driver      *storage.Table
	parallelism int
}

func (e *exchangeNode) scope() *scope    { return e.child.scope() }
func (e *exchangeNode) props() props     { return noProps() }
func (e *exchangeNode) children() []node { return []node{e.child} }

func (e *exchangeNode) build(ctx *buildCtx) (exec.Operator, error) {
	children := make([]exec.Operator, e.driver.Partitions())
	var err error
	for part := range children {
		ctx.driver, ctx.partition = e.driver, part
		if children[part], err = ctx.build(e.child); err != nil {
			return nil, err
		}
	}
	ctx.partition = -1
	ex, err := exec.NewExchange(children, e.parallelism)
	if err != nil {
		return nil, err
	}
	ex.Ctx = ctx.qctx
	return ex, nil
}

func (e *exchangeNode) describe() string {
	return fmt.Sprintf("Exchange [%d partitions of %s]", e.driver.Partitions(), e.driver.Name)
}

// --- model join ---

type modelJoinNode struct {
	child     node
	modelName string
	meta      *relmodel.Meta
	inputCols []int
	device    string
	sc        *scope
}

func newModelJoinNode(child node, meta *relmodel.Meta, inputCols []int, device string) *modelJoinNode {
	sc := &scope{cols: append([]scopeCol(nil), child.scope().cols...)}
	for _, c := range modeljoin.PredictionColumns(meta.OutputDim()) {
		sc.cols = append(sc.cols, scopeCol{name: strings.ToLower(c.Name), typ: c.Type})
	}
	return &modelJoinNode{child: child, modelName: meta.Name, meta: meta, inputCols: inputCols, device: device, sc: sc}
}

func (m *modelJoinNode) scope() *scope    { return m.sc }
func (m *modelJoinNode) children() []node { return []node{m.child} }

// props: the ModelJoin is pipelined and order-preserving (Sec. 5.4), so the
// child's properties flow through unchanged.
func (m *modelJoinNode) props() props { return m.child.props() }

func (m *modelJoinNode) build(ctx *buildCtx) (exec.Operator, error) {
	c, err := ctx.build(m.child)
	if err != nil {
		return nil, err
	}
	return ctx.cat.NewModelJoin(m.modelName, c, m.inputCols, m.device)
}

func (m *modelJoinNode) describe() string {
	dev := m.device
	if dev == "" {
		dev = "cpu"
	}
	return fmt.Sprintf("ModelJoin %s [%s]", m.modelName, dev)
}

// --- sort / limit ---

type sortNode struct {
	child node
	keys  []exec.SortKey
	// trimTo, when > 0, drops hidden sort columns after sorting: only the
	// first trimTo columns remain visible.
	trimTo int
}

func (s *sortNode) scope() *scope {
	sc := s.child.scope()
	if s.trimTo > 0 && s.trimTo < len(sc.cols) {
		return &scope{cols: sc.cols[:s.trimTo]}
	}
	return sc
}
func (s *sortNode) children() []node { return []node{s.child} }

// trimOp wraps an operator with a projection keeping the first n columns.
func trimOp(child exec.Operator, n int) (exec.Operator, error) {
	sc := child.Schema()
	exprs := make([]expr.Expr, n)
	names := make([]string, n)
	for i := 0; i < n; i++ {
		exprs[i] = expr.NewColRef(i, sc.Col(i).Name, sc.Col(i).Type)
		names[i] = sc.Col(i).Name
	}
	return exec.NewProject(child, exprs, names)
}

func (s *sortNode) props() props {
	p := noProps()
	if cr, ok := s.keys[0].E.(*expr.ColRef); ok && !s.keys[0].Desc {
		p.clustered = cr.Idx
	}
	cp := s.child.props()
	p.partTable, p.partCol = cp.partTable, cp.partCol
	return p
}

func (s *sortNode) build(ctx *buildCtx) (exec.Operator, error) {
	c, err := ctx.build(s.child)
	if err != nil {
		return nil, err
	}
	var op exec.Operator = exec.NewSort(c, s.keys)
	if s.trimTo > 0 && s.trimTo < s.child.scope().schema().Len() {
		return trimOp(op, s.trimTo)
	}
	return op, nil
}

func (s *sortNode) describe() string {
	parts := make([]string, len(s.keys))
	for i, k := range s.keys {
		dir := "ASC"
		if k.Desc {
			dir = "DESC"
		}
		parts[i] = fmt.Sprintf("%s %s", k.E, dir)
	}
	return "Sort " + strings.Join(parts, ", ")
}

type limitNode struct {
	child node
	n     int
}

func (l *limitNode) scope() *scope    { return l.child.scope() }
func (l *limitNode) props() props     { return l.child.props() }
func (l *limitNode) children() []node { return []node{l.child} }

func (l *limitNode) build(ctx *buildCtx) (exec.Operator, error) {
	c, err := ctx.build(l.child)
	if err != nil {
		return nil, err
	}
	return exec.NewLimit(c, l.n), nil
}

func (l *limitNode) describe() string { return fmt.Sprintf("Limit %d", l.n) }

// Explain renders the plan tree.
func explainNode(n node, indent int, sb *strings.Builder) {
	sb.WriteString(strings.Repeat("  ", indent))
	sb.WriteString(n.describe())
	sb.WriteByte('\n')
	for _, c := range n.children() {
		explainNode(c, indent+1, sb)
	}
}
