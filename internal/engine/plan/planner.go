package plan

import (
	"context"
	"fmt"
	"strings"

	"indbml/internal/core/modeljoin"
	"indbml/internal/engine/exec"
	"indbml/internal/engine/expr"
	"indbml/internal/engine/sql"
	"indbml/internal/engine/storage"
	"indbml/internal/engine/types"
	"indbml/internal/engine/vector"
	"indbml/internal/trace"
)

// Planner binds SELECT statements against a catalog and produces executable
// plans. The Disable flags switch off one optimization of Sec. 4.4 at a
// time, so the plan tests can check a plan against the same plan without
// it; no engine option sets them.
type Planner struct {
	Cat Catalog
	// Parallelism caps concurrent partition plans (0 = one per partition;
	// the paper runs 12 partitions at parallelism 12).
	Parallelism int
	// DisableSegmentedAgg forces hash aggregation everywhere (ablation for
	// the pipelined order-based aggregation).
	DisableSegmentedAgg bool
	// DisableZoneMaps skips attaching zone-map range filters to scans
	// (ablation for the layer-filter block pruning).
	DisableZoneMaps bool
	// DisableParallel forces single-threaded execution.
	DisableParallel bool
}

// Plan is a bound, optimized query ready to build physical operators.
type Plan struct {
	// root is an exchangeNode when the whole plan runs per partition.
	root     node
	topSort  *sortNode
	topLimit *limitNode
	parallel bool
	planner  *Planner
}

// Schema returns the plan's output schema.
func (p *Plan) Schema() *types.Schema { return outSchema(p.root) }

func outSchema(n node) *types.Schema { return n.scope().schema() }

// Parallel reports whether the plan executes partition-parallel.
func (p *Plan) Parallel() bool { return p.parallel }

// Explain renders the plan tree, annotated with the parallelization
// decision.
func (p *Plan) Explain() string {
	var sb strings.Builder
	if p.topLimit != nil {
		fmt.Fprintf(&sb, "Limit %d\n", p.topLimit.n)
	}
	if p.topSort != nil {
		sb.WriteString(p.topSort.describe() + "\n")
	}
	root := p.root
	if ex, ok := root.(*exchangeNode); ok {
		// A plan that runs whole per partition lists its Exchange flush
		// with the plan under it.
		sb.WriteString(ex.describe() + "\n")
		root = ex.child
	}
	explainNode(root, 0, &sb)
	return sb.String()
}

// Build constructs the physical operator tree under ctx — attached to the
// Scan leaves and the Exchange root, so a canceled ctx makes the next batch
// boundary return ctx.Err() instead of running the query to completion —
// with every operator wrapped in a span recorder (exec.Traced). The span
// tree, mirroring the plan with one span per logical node shared by all
// partition instances, is attached to qt.Root. The top physical operators
// (Exchange, TopN, Sort, Limit) exist once per query and are traced once,
// so the root span's busy time reconciles with the statement's total
// latency.
func (p *Plan) Build(ctx context.Context, qt *trace.QueryTrace) (exec.Operator, error) {
	// ORDER BY + small LIMIT fuse into a streaming TopN instead of a full
	// sort; otherwise sort and limit apply separately.
	const topNThreshold = 1 << 16
	fuseTopN := p.topSort != nil && p.topLimit != nil && p.topLimit.n <= topNThreshold

	// Lay out the span tree first, mirroring the physical shape this
	// function is about to build.
	var (
		spans                         = make(map[node]*trace.Span)
		limitSpan, sortSpan, topNSpan *trace.Span
		parent                        *trace.Span
	)
	add := func(name string) *trace.Span {
		if parent == nil {
			parent = trace.NewSpan(name)
			qt.Root = parent
		} else {
			parent = parent.NewChild(name)
		}
		return parent
	}
	if fuseTopN {
		topNSpan = add(fmt.Sprintf("TopN %d by %s", p.topLimit.n,
			strings.TrimPrefix(p.topSort.describe(), "Sort ")))
	} else {
		if p.topLimit != nil {
			limitSpan = add(p.topLimit.describe())
		}
		if p.topSort != nil {
			sortSpan = add(p.topSort.describe())
		}
	}
	buildSpanTree(p.root, parent, spans, qt)

	bctx := &buildCtx{cat: p.planner.Cat, partition: -1, qctx: ctx, spans: spans,
		snaps: make(map[*storage.Table]*storage.Snapshot), builds: make(map[*joinNode]*exec.Build)}
	root, err := bctx.build(p.root)
	if err != nil {
		return nil, err
	}
	if fuseTopN {
		root = exec.NewTraced(exec.NewTopN(root, p.topSort.keys, p.topLimit.n), topNSpan)
		if p.topSort.trimTo > 0 && p.topSort.trimTo < root.Schema().Len() {
			trimmed, err := trimOp(root, p.topSort.trimTo)
			if err != nil {
				return nil, err
			}
			root = trimmed
		}
		return root, nil
	}
	if p.topSort != nil {
		root = exec.NewTraced(exec.NewSort(root, p.topSort.keys), sortSpan)
		if p.topSort.trimTo > 0 && p.topSort.trimTo < root.Schema().Len() {
			trimmed, err := trimOp(root, p.topSort.trimTo)
			if err != nil {
				return nil, err
			}
			root = trimmed
		}
	}
	if p.topLimit != nil {
		root = exec.NewTraced(exec.NewLimit(root, p.topLimit.n), limitSpan)
	}
	return root, nil
}

// buildSpanTree allocates one span per logical node under parent (nil
// parent = the query root).
func buildSpanTree(n node, parent *trace.Span, spans map[node]*trace.Span, qt *trace.QueryTrace) {
	var sp *trace.Span
	if parent == nil {
		sp = trace.NewSpan(n.describe())
		qt.Root = sp
	} else {
		sp = parent.NewChild(n.describe())
	}
	spans[n] = sp
	for _, c := range n.children() {
		buildSpanTree(c, sp, spans, qt)
	}
}

// PlanSelect binds and optimizes a SELECT statement.
func (pl *Planner) PlanSelect(sel *sql.SelectStmt) (*Plan, error) {
	root, err := pl.bindSelect(sel)
	if err != nil {
		return nil, err
	}
	root = pl.optimize(root)
	if root, err = pruneColumns(root); err != nil {
		return nil, err
	}
	return pl.physical(root), nil
}

// physical makes the execution decisions over an optimized tree: what runs
// once above the partitions, which table drives them, which join side is
// built, and whether per-partition execution is correct.
func (pl *Planner) physical(root node) *Plan {
	p := &Plan{planner: pl}
	// Peel top-level sort/limit: they are applied globally, above any
	// Exchange.
	for {
		switch t := root.(type) {
		case *limitNode:
			p.topLimit = t
			root = t.child
			continue
		case *sortNode:
			if p.topSort == nil {
				p.topSort = t
			}
			root = t.child
			continue
		}
		break
	}
	p.root = root

	driver := pl.chooseDriver(root)
	if driver != nil {
		pl.placeBuildSides(root, driver)
	}
	switch {
	case driver == nil || pl.DisableParallel:
	case pl.parallelizable(root, driver):
		p.root, p.parallel = &exchangeNode{child: root, driver: driver, parallelism: pl.Parallelism}, true
	default:
		p.parallel = pl.splitGlobalAgg(root, driver)
	}
	walk(root, func(n node) {
		if a, ok := n.(*aggNode); ok {
			a.planGroupJoin(driver)
		}
	})
	return p
}

// splitGlobalAgg runs the topmost aggregate of root, under only projections
// and filters (its HAVING), as a partial aggregate per partition instance
// under an Exchange and a final merge above it, when it is global (no GROUP
// BY) and its input parallelizes. It reports whether it did.
func (pl *Planner) splitGlobalAgg(root node, driver *storage.Table) bool {
	for descend := true; descend; {
		switch t := root.(type) {
		case *projectNode:
			root = t.child
		case *filterNode:
			root = t.child
		default:
			descend = false
		}
	}
	a, ok := root.(*aggNode)
	if !ok || len(a.groupExprs) > 0 || !pl.parallelizable(a.child, driver) {
		return false
	}
	partial := *a
	// The partials emit no rows, so neither they nor the Exchange have columns.
	partial.partial, partial.sc, a.final = true, &scope{}, true
	a.child = &exchangeNode{child: &partial, driver: driver, parallelism: pl.Parallelism}
	return true
}

// chooseDriver picks the partition-parallel driver table (the fact table in
// the paper's queries). Tables declaring a unique row identifier are
// preferred regardless of size: they are the streamable fact side whose key
// makes grouping partition-aligned, whereas model tables — which can hold
// more edge rows than a small fact table has tuples — are replicated build
// sides (Sec. 4.4).
func (pl *Planner) chooseDriver(root node) *storage.Table {
	var best *storage.Table
	better := func(cand *storage.Table) bool {
		if best == nil {
			return true
		}
		candUnique, bestUnique := cand.UniqueKey() >= 0, best.UniqueKey() >= 0
		if candUnique != bestUnique {
			return candUnique
		}
		return cand.RowCount() > best.RowCount()
	}
	walk(root, func(n node) {
		if s, ok := n.(*scanNode); ok && s.table.Partitions() > 1 && better(s.table) {
			best = s.table
		}
	})
	return best
}

// placeBuildSides decides each join's build side: the side containing the
// driver (fact) table must stream (probe), so the other — typically the
// model table — is built, matching Sec. 4.4's "the model table is shared
// between the execution threads".
func (pl *Planner) placeBuildSides(root node, driver *storage.Table) {
	walk(root, func(n node) {
		if j, ok := n.(*joinNode); ok {
			if containsTable(j.right, driver) && !containsTable(j.left, driver) {
				j.buildRight = false
			} else {
				j.buildRight = true
			}
		}
	})
}

// parallelizable reports whether per-partition execution of the driver
// yields correct results:
//
//   - every aggregation must group by a partition-aligned column (Sec. 4.4's
//     "grouping key can be derived from a partitioning based on ID"), and
//   - every join whose both sides scan the driver (self-joins — e.g. the
//     fact re-join of the output function, or the series windowing
//     self-join) must join on the driver's unique key itself, since only
//     that key is guaranteed co-partitioned. The windowing join on ts+1 is
//     the counterexample: adjacent timestamps live in different partitions;
//   - no LIMIT may sit below the top of the plan (a subquery's): each
//     instance would keep its own n rows.
func (pl *Planner) parallelizable(root node, driver *storage.Table) bool {
	ok := true
	walk(root, func(n node) {
		switch t := n.(type) {
		case *limitNode:
			ok = false
		case *aggNode:
			if !t.aligned(driver) {
				ok = false
			}
		case *joinNode:
			if containsTable(t.left, driver) && containsTable(t.right, driver) && !selfJoinAligned(t) {
				ok = false
			}
		}
	})
	return ok
}

// selfJoinAligned reports whether a join has an equi-key pair of bare
// references to both sides' partition-alignment columns.
func selfJoinAligned(j *joinNode) bool {
	lp, rp := j.left.props(), j.right.props()
	if lp.partCol < 0 || rp.partCol < 0 || lp.partTable != rp.partTable {
		return false
	}
	for i := range j.leftKeys {
		lc, lok := j.leftKeys[i].(*expr.ColRef)
		rc, rok := j.rightKeys[i].(*expr.ColRef)
		if lok && rok && lc.Idx == lp.partCol && rc.Idx == rp.partCol {
			return true
		}
	}
	return false
}

// --- binding ---

// oneRowNode backs FROM-less SELECTs.
type oneRowNode struct{}

func (oneRowNode) scope() *scope    { return &scope{} }
func (oneRowNode) props() props     { return noProps() }
func (oneRowNode) children() []node { return nil }
func (oneRowNode) describe() string { return "OneRow" }

func (oneRowNode) build(*buildCtx) (exec.Operator, error) {
	schema := types.NewSchema()
	b := vector.NewBatch(schema, 1)
	b.SetLen(1)
	return &oneRowValues{Values: exec.NewValues(schema, b)}, nil
}

// oneRowValues works around Values skipping zero-column batches: a one-row,
// zero-column relation still drives one evaluation of constant projections.
type oneRowValues struct {
	*exec.Values
	done bool
}

// Next implements exec.Operator.
func (o *oneRowValues) Next() (*vector.Batch, error) {
	if o.done {
		return nil, nil
	}
	o.done = true
	schema := types.NewSchema()
	b := vector.NewBatch(schema, 1)
	b.SetLen(1)
	return b, nil
}

// Open implements exec.Operator.
func (o *oneRowValues) Open() error { o.done = false; return nil }

// aliasNode re-qualifies a subquery's output columns under its FROM alias.
// It exists for name binding only: column pruning drops it from the tree, so
// it is never built and has no span.
type aliasNode struct {
	child node
	sc    *scope
}

func newAliasNode(child node, alias string) *aliasNode {
	sc := &scope{}
	for _, c := range child.scope().cols {
		sc.cols = append(sc.cols, scopeCol{qual: strings.ToLower(alias), name: c.name, typ: c.typ})
	}
	return &aliasNode{child: child, sc: sc}
}

func (a *aliasNode) scope() *scope                              { return a.sc }
func (a *aliasNode) props() props                               { return a.child.props() }
func (a *aliasNode) children() []node                           { return []node{a.child} }
func (a *aliasNode) describe() string                           { return "Alias" }
func (a *aliasNode) build(ctx *buildCtx) (exec.Operator, error) { return ctx.build(a.child) }

func (pl *Planner) bindFrom(ref sql.TableRef) (node, error) {
	switch r := ref.(type) {
	case *sql.BaseTable:
		t, err := pl.Cat.Table(r.Name)
		if err != nil {
			// Fall back to virtual system tables when the catalog supports
			// them; real tables always win the name.
			if vc, ok := pl.Cat.(VirtualCatalog); ok {
				if vt, found := vc.VirtualTable(r.Name); found {
					alias := r.Alias
					if alias == "" {
						// Default alias is the unqualified name, so
						// "FROM system.queries" exposes columns as
						// queries.<col>.
						alias = r.Name
						if i := strings.LastIndex(alias, "."); i >= 0 {
							alias = alias[i+1:]
						}
					}
					return newVirtualScanNode(vt, alias), nil
				}
			}
			return nil, err
		}
		alias := r.Alias
		if alias == "" {
			alias = r.Name
		}
		return newScanNode(t, alias), nil
	case *sql.SubqueryRef:
		child, err := pl.bindSelect(r.Select)
		if err != nil {
			return nil, err
		}
		return newAliasNode(child, r.Alias), nil
	case *sql.JoinRef:
		left, err := pl.bindFrom(r.Left)
		if err != nil {
			return nil, err
		}
		right, err := pl.bindFrom(r.Right)
		if err != nil {
			return nil, err
		}
		j := newJoinNode(left, right, nil, nil, true)
		if r.On == nil {
			return j, nil
		}
		pred, err := bindExpr(r.On, j.scope())
		if err != nil {
			return nil, err
		}
		if pred.Type() != types.Bool {
			return nil, fmt.Errorf("plan: JOIN ON condition must be boolean")
		}
		return &filterNode{child: j, pred: pred}, nil
	case *sql.ModelJoinRef:
		fact, err := pl.bindFrom(r.Fact)
		if err != nil {
			return nil, err
		}
		meta, err := pl.Cat.Model(r.ModelName)
		if err != nil {
			return nil, err
		}
		factScope := fact.scope()
		var inputCols []int
		if len(r.Inputs) > 0 {
			for _, name := range r.Inputs {
				idx, _, err := factScope.resolve("", name)
				if err != nil {
					return nil, err
				}
				inputCols = append(inputCols, idx)
			}
		} else {
			// Default input columns: every numeric column except ones named
			// "id" (the unique row identifier of Sec. 4.2).
			for i, c := range factScope.cols {
				if c.typ.IsNumeric() && c.name != "id" {
					inputCols = append(inputCols, i)
				}
			}
		}
		if err := modeljoin.CheckInputs(meta.Name, meta.Inputs(), factScope, inputCols); err != nil {
			return nil, err
		}
		return newModelJoinNode(fact, meta, inputCols, r.Device), nil
	default:
		return nil, fmt.Errorf("plan: unsupported table reference %T", ref)
	}
}

func (pl *Planner) bindSelect(sel *sql.SelectStmt) (node, error) {
	var root node
	if sel.From != nil {
		from, err := pl.bindFrom(sel.From)
		if err != nil {
			return nil, err
		}
		root = from
	} else {
		root = oneRowNode{}
	}

	if sel.Where != nil {
		if ContainsAgg(sel.Where) {
			return nil, fmt.Errorf("plan: aggregates are not allowed in WHERE")
		}
		pred, err := bindExpr(sel.Where, root.scope())
		if err != nil {
			return nil, err
		}
		if pred.Type() != types.Bool {
			return nil, fmt.Errorf("plan: WHERE condition must be boolean, got %s", pred.Type())
		}
		root = &filterNode{child: root, pred: pred}
	}

	// Expand stars and determine output names.
	items, names, err := expandItems(sel.Items, root.scope())
	if err != nil {
		return nil, err
	}

	isAgg := len(sel.GroupBy) > 0
	for _, it := range items {
		if ContainsAgg(it) {
			isAgg = true
		}
	}
	if sel.Having != nil {
		isAgg = true
	}

	if isAgg {
		root, err = pl.bindAggSelect(root, sel, items, names)
		if err != nil {
			return nil, err
		}
	} else {
		exprs := make([]expr.Expr, len(items))
		for i, it := range items {
			e, err := bindExpr(it, root.scope())
			if err != nil {
				return nil, err
			}
			exprs[i] = expr.Fold(e)
		}
		root = newProjectNode(root, exprs, names)
	}

	if sel.Distinct {
		sc := root.scope()
		groupExprs := make([]expr.Expr, sc.schema().Len())
		groupNames := make([]string, sc.schema().Len())
		for i := range groupExprs {
			groupExprs[i] = expr.NewColRef(i, sc.cols[i].name, sc.cols[i].typ)
			groupNames[i] = sc.cols[i].name
		}
		agg := newAggNode(root, groupExprs, groupNames, nil)
		agg.forceHash = pl.DisableSegmentedAgg
		root = agg
	}

	if len(sel.OrderBy) > 0 {
		keys := make([]exec.SortKey, len(sel.OrderBy))
		visibleCols := root.scope().schema().Len()
		hidden := 0
		for i, o := range sel.OrderBy {
			// Support ordinal references (ORDER BY 1) and output columns.
			if num, ok := o.E.(*sql.NumberLit); ok && !strings.ContainsAny(num.Text, "-.eE") {
				var pos int
				fmt.Sscanf(num.Text, "%d", &pos)
				if pos < 1 || pos > visibleCols {
					return nil, fmt.Errorf("plan: ORDER BY position %d out of range", pos)
				}
				sc := root.scope()
				keys[i] = exec.SortKey{E: expr.NewColRef(pos-1, sc.cols[pos-1].name, sc.cols[pos-1].typ), Desc: o.Desc}
				continue
			}
			e, err := bindExpr(o.E, root.scope())
			if err != nil {
				// ORDER BY binds against the output columns, where FROM
				// qualifiers are gone; retry with the qualifier stripped
				// (SELECT e.name ... ORDER BY e.name).
				if id, ok := o.E.(*sql.Ident); ok && id.Table != "" {
					if e2, err2 := bindExpr(&sql.Ident{Name: id.Name}, root.scope()); err2 == nil {
						keys[i] = exec.SortKey{E: e2, Desc: o.Desc}
						continue
					}
				}
				// Finally, allow ordering by a non-projected input column:
				// extend the projection with a hidden sort column, dropped
				// again after the sort. Not valid under DISTINCT.
				if pj, isProj := root.(*projectNode); isProj && !sel.Distinct {
					if e3, err3 := bindExpr(o.E, pj.child.scope()); err3 == nil {
						name := fmt.Sprintf("__sort%d", i)
						root = newProjectNode(pj.child, append(append([]expr.Expr(nil), pj.exprs...), e3), append(append([]string(nil), pj.names...), name))
						sc := root.scope()
						keys[i] = exec.SortKey{E: expr.NewColRef(sc.schema().Len()-1, name, e3.Type()), Desc: o.Desc}
						hidden++
						continue
					}
				}
				return nil, err
			}
			keys[i] = exec.SortKey{E: e, Desc: o.Desc}
		}
		sn := &sortNode{child: root, keys: keys}
		if hidden > 0 {
			sn.trimTo = visibleCols
		}
		root = sn
	}
	if sel.Limit >= 0 {
		root = &limitNode{child: root, n: sel.Limit}
	}
	return root, nil
}

// expandItems resolves stars and computes output column names.
func expandItems(items []sql.SelectItem, sc *scope) ([]sql.Expr, []string, error) {
	var exprs []sql.Expr
	var names []string
	used := map[string]int{}
	addName := func(name string) {
		lower := strings.ToLower(name)
		if n, ok := used[lower]; ok {
			// Keep duplicate names distinguishable in nested contexts.
			used[lower] = n + 1
		} else {
			used[lower] = 1
		}
		names = append(names, name)
	}
	for _, it := range items {
		if it.Star {
			matched := false
			for _, c := range sc.cols {
				if it.StarTable != "" && c.qual != strings.ToLower(it.StarTable) {
					continue
				}
				matched = true
				ident := &sql.Ident{Name: c.name}
				if c.qual != "" {
					ident.Table = c.qual
				}
				exprs = append(exprs, ident)
				addName(c.name)
			}
			if !matched {
				return nil, nil, fmt.Errorf("plan: %s.* matches no columns", it.StarTable)
			}
			continue
		}
		exprs = append(exprs, it.Expr)
		switch {
		case it.Alias != "":
			addName(it.Alias)
		default:
			if id, ok := it.Expr.(*sql.Ident); ok {
				addName(id.Name)
			} else if fc, ok := it.Expr.(*sql.FuncCall); ok {
				addName(strings.ToLower(fc.Name))
			} else {
				addName(fmt.Sprintf("col%d", len(names)))
			}
		}
	}
	return exprs, names, nil
}

// bindAggSelect binds a grouping query: GROUP BY expressions become the
// aggregate's group columns, aggregate calls become AggSpecs, and the select
// list is rewritten over the aggregate's output.
func (pl *Planner) bindAggSelect(input node, sel *sql.SelectStmt, items []sql.Expr, names []string) (node, error) {
	fromScope := input.scope()
	groups := make([]expr.Expr, len(sel.GroupBy))
	groupNames := make([]string, len(sel.GroupBy))
	for i, g := range sel.GroupBy {
		if ContainsAgg(g) {
			return nil, fmt.Errorf("plan: aggregates are not allowed in GROUP BY")
		}
		bound, err := bindExpr(g, fromScope)
		if err != nil {
			return nil, err
		}
		groups[i] = bound
		if id, ok := g.(*sql.Ident); ok {
			groupNames[i] = strings.ToLower(id.Name)
		} else {
			groupNames[i] = fmt.Sprintf("group%d", i)
		}
	}

	var specs []exec.AggSpec
	outExprs := make([]expr.Expr, len(items))
	for i, it := range items {
		e, err := rewriteAggExpr(it, fromScope, groups, groupNames, &specs)
		if err != nil {
			return nil, err
		}
		outExprs[i] = expr.Fold(e)
	}
	var havingExpr expr.Expr
	if sel.Having != nil {
		h, err := rewriteAggExpr(sel.Having, fromScope, groups, groupNames, &specs)
		if err != nil {
			return nil, err
		}
		if h.Type() != types.Bool {
			return nil, fmt.Errorf("plan: HAVING condition must be boolean")
		}
		havingExpr = h
	}

	agg := newAggNode(input, groups, groupNames, specs)
	agg.forceHash = pl.DisableSegmentedAgg
	var root node = agg
	if havingExpr != nil {
		root = &filterNode{child: root, pred: havingExpr}
	}
	return newProjectNode(root, outExprs, names), nil
}

// rewriteAggExpr converts a select-list AST over the pre-aggregation scope
// into a bound expression over the aggregate's output: aggregate calls map
// to aggregate output columns, subtrees matching GROUP BY expressions map
// to group columns, constants pass through, and anything else recurses.
func rewriteAggExpr(e sql.Expr, fromScope *scope, groups []expr.Expr, groupNames []string, specs *[]exec.AggSpec) (expr.Expr, error) {
	if fc, ok := e.(*sql.FuncCall); ok {
		if af, isAgg := exec.ParseAggFunc(fc.Name); isAgg {
			var arg expr.Expr
			if fc.Star {
				af = exec.AggCountStar
			} else {
				if len(fc.Args) != 1 {
					return nil, fmt.Errorf("plan: %s expects exactly one argument", fc.Name)
				}
				var err error
				if arg, err = bindExpr(fc.Args[0], fromScope); err != nil {
					return nil, err
				}
			}
			for i, s := range *specs {
				if s.Func == af && ((arg == nil && s.Arg == nil) || (arg != nil && s.Arg != nil && exprEqual(arg, s.Arg))) {
					return aggOutputRef(groups, *specs, i), nil
				}
			}
			*specs = append(*specs, exec.AggSpec{Func: af, Arg: arg, Name: fmt.Sprintf("agg%d", len(*specs))})
			return aggOutputRef(groups, *specs, len(*specs)-1), nil
		}
	}

	if !ContainsAgg(e) {
		if bound, err := bindExpr(e, fromScope); err == nil {
			for i, g := range groups {
				if exprEqual(bound, g) {
					return expr.NewColRef(i, groupNames[i], g.Type()), nil
				}
			}
			folded := expr.Fold(bound)
			if _, isConst := expr.IsConst(folded); isConst {
				return folded, nil
			}
			// Fall through: the expression may decompose into grouped
			// subtrees and constants (e.g. `node - 6` over GROUP BY node).
		}
	}

	// Mixed expression: recurse structurally.
	switch t := e.(type) {
	case *sql.Ident:
		return nil, fmt.Errorf("plan: column %s must appear in GROUP BY or inside an aggregate", t)
	case *sql.BinExpr:
		l, err := rewriteAggExpr(t.L, fromScope, groups, groupNames, specs)
		if err != nil {
			return nil, err
		}
		r, err := rewriteAggExpr(t.R, fromScope, groups, groupNames, specs)
		if err != nil {
			return nil, err
		}
		op, err := bindOp(t.Op)
		if err != nil {
			return nil, err
		}
		return expr.NewBinOp(op, l, r)
	case *sql.UnaryExpr:
		in, err := rewriteAggExpr(t.E, fromScope, groups, groupNames, specs)
		if err != nil {
			return nil, err
		}
		if t.Op == "NOT" {
			return expr.NewUnaryOp(expr.OpNot, in)
		}
		return expr.NewUnaryOp(expr.OpNeg, in)
	case *sql.FuncCall:
		args := make([]expr.Expr, len(t.Args))
		for i, a := range t.Args {
			var err error
			if args[i], err = rewriteAggExpr(a, fromScope, groups, groupNames, specs); err != nil {
				return nil, err
			}
		}
		return expr.NewFunc(t.Name, args)
	case *sql.CaseExpr:
		whens := make([]expr.When, len(t.Whens))
		for i, w := range t.Whens {
			c, err := rewriteAggExpr(w.Cond, fromScope, groups, groupNames, specs)
			if err != nil {
				return nil, err
			}
			th, err := rewriteAggExpr(w.Then, fromScope, groups, groupNames, specs)
			if err != nil {
				return nil, err
			}
			whens[i] = expr.When{Cond: c, Then: th}
		}
		var elseE expr.Expr
		if t.Else != nil {
			var err error
			if elseE, err = rewriteAggExpr(t.Else, fromScope, groups, groupNames, specs); err != nil {
				return nil, err
			}
		}
		return expr.NewCase(whens, elseE)
	case *sql.CastExpr:
		in, err := rewriteAggExpr(t.E, fromScope, groups, groupNames, specs)
		if err != nil {
			return nil, err
		}
		ty, err := types.ParseType(t.Type)
		if err != nil {
			return nil, err
		}
		return expr.NewCast(in, ty), nil
	default:
		// Leaves (literals) bind directly.
		bound, err := bindExpr(e, fromScope)
		if err != nil {
			return nil, fmt.Errorf("plan: cannot rewrite %T over aggregation: %w", e, err)
		}
		return expr.Fold(bound), nil
	}
}

// aggOutputRef builds a column reference to aggregate output i.
func aggOutputRef(groups []expr.Expr, specs []exec.AggSpec, i int) expr.Expr {
	s := specs[i]
	t := types.Int64
	switch s.Func {
	case exec.AggSum, exec.AggMin, exec.AggMax:
		t = s.Arg.Type()
	case exec.AggAvg:
		t = types.Float64
	}
	return expr.NewColRef(len(groups)+i, s.Name, t)
}
