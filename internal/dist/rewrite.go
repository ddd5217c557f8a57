package dist

import (
	"fmt"
	"strings"

	"indbml/internal/engine/exec"
	"indbml/internal/engine/plan"
	"indbml/internal/engine/sql"
)

// splitPlan is the two halves of one distributed SELECT over a sharded
// table: the fragment every shard runs, and the finalization the
// coordinator runs over the union of the shard results. A nil final means
// stream-through — the union of the fragments IS the answer (the MODEL JOIN
// inference path: scan, filter and per-row prediction all run shard-side,
// the coordinator only merges streams).
type splitPlan struct {
	fragment *sql.SelectStmt
	final    *sql.SelectStmt
}

// splitSelect decides how sel distributes. Partial-aggregation rules:
// SUM/COUNT recombine by summing the per-shard partials, MIN/MAX by
// re-applying themselves, and AVG is rewritten to a SUM/COUNT pair so it
// recombines exactly. GROUP BY keys ship as aliased columns and group again
// at the coordinator; HAVING applies only at the coordinator (it filters
// recombined groups). ORDER BY + LIMIT on non-aggregating queries push to
// the shards (each shard's top-N is a superset of the global top-N) and
// re-apply at the coordinator.
func splitSelect(sel *sql.SelectStmt) (*splitPlan, error) {
	hasAgg := len(sel.GroupBy) > 0 || sel.Having != nil
	for _, it := range sel.Items {
		if !it.Star && plan.ContainsAgg(it.Expr) {
			hasAgg = true
		}
	}
	if !hasAgg {
		if !sel.Distinct && len(sel.OrderBy) == 0 && sel.Limit < 0 {
			return &splitPlan{fragment: sel}, nil
		}
		return splitStreamFinalize(sel)
	}
	return splitAggregate(sel)
}

// splitStreamFinalize handles DISTINCT / ORDER BY / LIMIT without
// aggregation: the fragment is the original query (per-shard DISTINCT and
// top-N both yield supersets of the global answer), and the coordinator
// re-applies the clauses over the gathered rows.
func splitStreamFinalize(sel *sql.SelectStmt) (*splitPlan, error) {
	frag := *sel
	final := &sql.SelectStmt{
		Distinct: sel.Distinct,
		Items:    []sql.SelectItem{{Star: true}},
		Limit:    sel.Limit,
	}
	star := false
	for _, it := range sel.Items {
		if it.Star {
			star = true
		}
	}
	if star {
		// The gathered rows carry every source column, so ORDER BY terms
		// rebind over them unchanged.
		final.OrderBy = sel.OrderBy
		return &splitPlan{fragment: &frag, final: final}, nil
	}
	// Explicit projection: the gathered rows expose only the output
	// columns. Alias every fragment item with its single-node-derived name
	// so the final ORDER BY can address them, and rewrite each order term
	// to the matching output column.
	items := make([]sql.SelectItem, len(sel.Items))
	copy(items, sel.Items)
	names := make([]string, len(items))
	for i := range items {
		names[i] = outputName(items[i], i)
		items[i].Alias = names[i]
	}
	frag.Items = items
	for _, o := range sel.OrderBy {
		idx := -1
		for i, it := range sel.Items {
			if sameExpr(o.E, it.Expr) || matchesAlias(o.E, names[i]) {
				idx = i
				break
			}
		}
		if idx < 0 {
			return nil, fmt.Errorf("dist: distributed ORDER BY must use selected columns (term %s)", o.E)
		}
		final.OrderBy = append(final.OrderBy, sql.OrderItem{E: &sql.Ident{Name: names[idx]}, Desc: o.Desc})
	}
	return &splitPlan{fragment: &frag, final: final}, nil
}

// splitAggregate rewrites an aggregating query into per-shard partials plus
// a coordinator recombination.
func splitAggregate(sel *sql.SelectStmt) (*splitPlan, error) {
	for _, it := range sel.Items {
		if it.Star {
			return nil, fmt.Errorf("dist: SELECT * cannot mix with aggregation in a distributed query")
		}
	}
	rw := &aggRewriter{}
	for _, g := range sel.GroupBy {
		rw.groupCol(g)
	}
	frag := &sql.SelectStmt{
		From:    sel.From,
		Where:   sel.Where,
		GroupBy: sel.GroupBy,
		Limit:   -1,
	}
	final := &sql.SelectStmt{
		Distinct: sel.Distinct,
		Limit:    sel.Limit,
	}
	for i, it := range sel.Items {
		fe, err := rw.rewrite(it.Expr)
		if err != nil {
			return nil, err
		}
		final.Items = append(final.Items, sql.SelectItem{Expr: fe, Alias: outputName(it, i)})
	}
	for _, g := range rw.groups {
		final.GroupBy = append(final.GroupBy, &sql.Ident{Name: g.alias})
	}
	if sel.Having != nil {
		he, err := rw.rewrite(sel.Having)
		if err != nil {
			return nil, err
		}
		final.Having = he
	}
	for _, o := range sel.OrderBy {
		// A bare identifier naming an output column (ORDER BY s over
		// SUM(v) AS s) re-binds against the finalization's own aliases,
		// exactly as it would on a single node.
		if id, ok := o.E.(*sql.Ident); ok && id.Table == "" {
			byAlias := false
			for i, it := range sel.Items {
				if strings.EqualFold(id.Name, outputName(it, i)) {
					byAlias = true
					break
				}
			}
			if byAlias {
				final.OrderBy = append(final.OrderBy, o)
				continue
			}
		}
		oe, err := rw.rewrite(o.E)
		if err != nil {
			return nil, err
		}
		final.OrderBy = append(final.OrderBy, sql.OrderItem{E: oe, Desc: o.Desc})
	}
	frag.Items = rw.fragItems
	return &splitPlan{fragment: frag, final: final}, nil
}

// aggRewriter accumulates the fragment's partial columns while rewriting
// coordinator-side expressions to reference them.
type aggRewriter struct {
	fragItems []sql.SelectItem
	groups    []groupCol
	nPartial  int
}

type groupCol struct {
	src   sql.Expr
	alias string
}

func (rw *aggRewriter) groupCol(g sql.Expr) string {
	for _, gc := range rw.groups {
		if sameExpr(gc.src, g) {
			return gc.alias
		}
	}
	alias := fmt.Sprintf("g%d", len(rw.groups))
	rw.groups = append(rw.groups, groupCol{src: g, alias: alias})
	rw.fragItems = append(rw.fragItems, sql.SelectItem{Expr: g, Alias: alias})
	return alias
}

func (rw *aggRewriter) partial(e sql.Expr) *sql.Ident {
	alias := fmt.Sprintf("p%d", rw.nPartial)
	rw.nPartial++
	rw.fragItems = append(rw.fragItems, sql.SelectItem{Expr: e, Alias: alias})
	return &sql.Ident{Name: alias}
}

// rewrite maps a coordinator-side expression over the partial columns:
// group-key subtrees become their g<i> columns, aggregate calls become
// recombinations of their p<j> partials, everything else recurses.
func (rw *aggRewriter) rewrite(e sql.Expr) (sql.Expr, error) {
	for _, gc := range rw.groups {
		if sameExpr(gc.src, e) {
			return &sql.Ident{Name: gc.alias}, nil
		}
	}
	switch e := e.(type) {
	case *sql.FuncCall:
		if fn, ok := exec.ParseAggFunc(e.Name); ok {
			return rw.rewriteAgg(e, fn)
		}
		out := &sql.FuncCall{Name: e.Name}
		for _, a := range e.Args {
			ra, err := rw.rewrite(a)
			if err != nil {
				return nil, err
			}
			out.Args = append(out.Args, ra)
		}
		return out, nil
	case *sql.BinExpr:
		l, err := rw.rewrite(e.L)
		if err != nil {
			return nil, err
		}
		r, err := rw.rewrite(e.R)
		if err != nil {
			return nil, err
		}
		return &sql.BinExpr{Op: e.Op, L: l, R: r}, nil
	case *sql.UnaryExpr:
		in, err := rw.rewrite(e.E)
		if err != nil {
			return nil, err
		}
		return &sql.UnaryExpr{Op: e.Op, E: in}, nil
	case *sql.CastExpr:
		in, err := rw.rewrite(e.E)
		if err != nil {
			return nil, err
		}
		return &sql.CastExpr{E: in, Type: e.Type}, nil
	case *sql.CaseExpr:
		out := &sql.CaseExpr{}
		for _, w := range e.Whens {
			c, err := rw.rewrite(w.Cond)
			if err != nil {
				return nil, err
			}
			t, err := rw.rewrite(w.Then)
			if err != nil {
				return nil, err
			}
			out.Whens = append(out.Whens, sql.CaseWhen{Cond: c, Then: t})
		}
		if e.Else != nil {
			el, err := rw.rewrite(e.Else)
			if err != nil {
				return nil, err
			}
			out.Else = el
		}
		return out, nil
	case *sql.NumberLit, *sql.StringLit, *sql.BoolLit, *sql.NullLit:
		return e, nil
	case *sql.Ident:
		// A bare column outside every group key would not bind on a single
		// node either; surface the distributed variant of that error.
		return nil, fmt.Errorf("dist: column %s must appear in GROUP BY or inside an aggregate", e)
	default:
		return nil, fmt.Errorf("dist: unsupported expression %s in distributed aggregation", e)
	}
}

func (rw *aggRewriter) rewriteAgg(call *sql.FuncCall, fn exec.AggFunc) (sql.Expr, error) {
	switch fn {
	case exec.AggSum:
		return &sql.FuncCall{Name: "SUM", Args: []sql.Expr{rw.partial(call)}}, nil
	case exec.AggCount:
		// Per-shard counts recombine by summing.
		return &sql.FuncCall{Name: "SUM", Args: []sql.Expr{rw.partial(call)}}, nil
	case exec.AggMin:
		return &sql.FuncCall{Name: "MIN", Args: []sql.Expr{rw.partial(call)}}, nil
	case exec.AggMax:
		return &sql.FuncCall{Name: "MAX", Args: []sql.Expr{rw.partial(call)}}, nil
	case exec.AggAvg:
		// AVG does not recombine from per-shard averages; ship the exact
		// sufficient statistics instead: a double sum and a count.
		if len(call.Args) != 1 {
			return nil, fmt.Errorf("dist: AVG takes one argument")
		}
		sum := rw.partial(&sql.FuncCall{Name: "SUM", Args: []sql.Expr{
			&sql.CastExpr{E: call.Args[0], Type: "DOUBLE"},
		}})
		cnt := rw.partial(&sql.FuncCall{Name: "COUNT", Args: []sql.Expr{call.Args[0]}})
		avg := &sql.BinExpr{
			Op: "/",
			L:  &sql.FuncCall{Name: "SUM", Args: []sql.Expr{sum}},
			R:  &sql.FuncCall{Name: "SUM", Args: []sql.Expr{cnt}},
		}
		// All-null input: single-node AVG is NULL, but the recombined count
		// is 0, so guard the division.
		return &sql.CaseExpr{
			Whens: []sql.CaseWhen{{
				Cond: &sql.BinExpr{Op: ">", L: &sql.FuncCall{Name: "SUM", Args: []sql.Expr{cnt}}, R: &sql.NumberLit{Text: "0"}},
				Then: avg,
			}},
			Else: &sql.NullLit{},
		}, nil
	default:
		return nil, fmt.Errorf("dist: aggregate %s does not distribute", call.Name)
	}
}

// outputName derives the column name a single-node run would give item i,
// so distributed results are column-for-column identical.
func outputName(it sql.SelectItem, i int) string {
	switch {
	case it.Alias != "":
		return it.Alias
	default:
		if id, ok := it.Expr.(*sql.Ident); ok {
			return id.Name
		}
		if fc, ok := it.Expr.(*sql.FuncCall); ok {
			return strings.ToLower(fc.Name)
		}
		return fmt.Sprintf("col%d", i)
	}
}

func sameExpr(a, b sql.Expr) bool {
	return strings.EqualFold(a.String(), b.String())
}

func matchesAlias(e sql.Expr, name string) bool {
	id, ok := e.(*sql.Ident)
	return ok && id.Table == "" && strings.EqualFold(id.Name, name)
}
