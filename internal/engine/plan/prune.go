package plan

import (
	"fmt"

	"indbml/internal/engine/expr"
)

// pruneColumns is the required-columns pass: one top-down walk over the
// optimized tree that tells every node which of its output columns something
// above it reads, so that
//
//   - a scan decodes only the referenced columns of its table,
//   - a join materializes and gathers only the columns read above it (key
//     columns that nothing else reads stop at the join),
//   - unread projection expressions and aggregates are dropped, and a
//     projection over a projection is composed into one (subquery aliases,
//     which only matter to name binding, disappear on the way).
//
// The root keeps all of its columns, in order, so the plan's schema does not
// change. The generated ML-To-SQL queries depend on this pass: they stack
// three projections between every aggregate and the next join and read six of
// the model table's sixteen columns (Sec. 4.4's intermediate-result blow-up).
func pruneColumns(root node) (node, error) {
	p := &pruner{}
	out, _ := p.prune(root, allTrue(width(root)))
	return out, p.err
}

func width(n node) int { return len(n.scope().cols) }

func allTrue(n int) []bool {
	need := make([]bool, n)
	for i := range need {
		need[i] = true
	}
	return need
}

type pruner struct{ err error }

// rewrite is rewriteColRefs with a failure — which no bound expression
// should produce — kept as the pass's error.
func (p *pruner) rewrite(e expr.Expr, fn func(*expr.ColRef) expr.Expr) expr.Expr {
	out := rewriteColRefs(e, fn)
	if out == nil {
		if p.err == nil {
			p.err = fmt.Errorf("plan: cannot rebind %s after column pruning", e)
		}
		return e
	}
	return out
}

// rebind rewrites e's column references through to (old ordinal → new).
func (p *pruner) rebind(e expr.Expr, to []int) expr.Expr {
	return p.rewrite(e, func(c *expr.ColRef) expr.Expr {
		if to[c.Idx] < 0 {
			return nil
		}
		return expr.NewColRef(to[c.Idx], c.Name, c.Typ)
	})
}

func (p *pruner) rebindAll(es []expr.Expr, to []int) {
	for i, e := range es {
		es[i] = p.rebind(e, to)
	}
}

// markRefs sets need[i] for every column i that e references.
func markRefs(e expr.Expr, need []bool) {
	walkColRefs(e, func(c *expr.ColRef) { need[c.Idx] = true })
}

// kept lists the ordinals need marks — at least one, so that every node
// keeps a column to carry its row count — and the old → new ordinal mapping
// that keeping exactly those implies.
func kept(need []bool) (cols, to []int) {
	to = make([]int, len(need))
	for i, n := range need {
		to[i] = -1
		if n {
			to[i] = len(cols)
			cols = append(cols, i)
		}
	}
	if len(cols) == 0 && len(need) > 0 {
		cols, to[0] = []int{0}, 0
	}
	return cols, to
}

// prune rewrites n to produce only the columns need marks (a node may keep
// more, e.g. a filter's predicate columns) and returns, for every old output
// ordinal, the column's new ordinal or -1.
func (p *pruner) prune(n node, need []bool) (node, []int) {
	switch t := n.(type) {
	case *aliasNode:
		return p.prune(t.child, need)

	case *scanNode:
		cols, to := kept(need)
		if len(cols) < len(need) {
			t.proj = cols
			sc := &scope{}
			for _, c := range cols {
				sc.cols = append(sc.cols, t.sc.cols[c])
			}
			t.sc = sc
		}
		return t, to

	case *filterNode:
		childNeed := append([]bool(nil), need...)
		markRefs(t.pred, childNeed)
		var to []int
		t.child, to = p.prune(t.child, childNeed)
		t.pred = p.rebind(t.pred, to)
		return t, to

	case *limitNode:
		var to []int
		t.child, to = p.prune(t.child, need)
		return t, to

	case *sortNode:
		// A sort passes all of its input through (hidden sort columns are
		// trimmed by position afterwards), so everything below stays.
		var to []int
		t.child, to = p.prune(t.child, allTrue(width(t.child)))
		for i := range t.keys {
			t.keys[i].E = p.rebind(t.keys[i].E, to)
		}
		return t, to[:len(need)]

	case *projectNode:
		cols, to := kept(need)
		exprs := make([]expr.Expr, len(cols))
		names := make([]string, len(cols))
		childNeed := make([]bool, width(t.child))
		for i, c := range cols {
			exprs[i], names[i] = t.exprs[c], t.names[c]
			markRefs(exprs[i], childNeed)
		}
		child, childTo := p.prune(t.child, childNeed)
		p.rebindAll(exprs, childTo)
		if below, ok := child.(*projectNode); ok && composable(exprs, below) {
			for i, e := range exprs {
				exprs[i] = p.rewrite(e, func(c *expr.ColRef) expr.Expr { return below.exprs[c.Idx] })
			}
			child = below.child
		}
		return newProjectNode(child, exprs, names), to

	case *joinNode:
		lw := width(t.left)
		cols, to := kept(need)
		needL, needR := make([]bool, lw), make([]bool, len(need)-lw)
		for _, c := range cols {
			if c < lw {
				needL[c] = true
			} else {
				needR[c-lw] = true
			}
		}
		for i := range t.leftKeys {
			markRefs(t.leftKeys[i], needL)
			markRefs(t.rightKeys[i], needR)
		}
		var toL, toR []int
		t.left, toL = p.prune(t.left, needL)
		t.right, toR = p.prune(t.right, needR)
		p.rebindAll(t.leftKeys, toL)
		p.rebindAll(t.rightKeys, toR)
		both := t.left.scope().concat(t.right.scope())
		t.keep, t.sc = make([]int, len(cols)), &scope{}
		for k, c := range cols {
			if c < lw {
				t.keep[k] = toL[c]
			} else {
				t.keep[k] = width(t.left) + toR[c-lw]
			}
			t.sc.cols = append(t.sc.cols, both.cols[t.keep[k]])
		}
		return t, to

	case *aggNode:
		ng := len(t.groupExprs)
		aggNeed := append([]bool(nil), need[ng:]...)
		if ng == 0 {
			// A scalar aggregate has no group column to carry its one row.
			cols, _ := kept(aggNeed)
			for _, c := range cols {
				aggNeed[c] = true
			}
		}
		to := make([]int, len(need))
		childNeed := make([]bool, width(t.child))
		for i, g := range t.groupExprs {
			to[i] = i
			markRefs(g, childNeed)
		}
		aggs := t.aggs[:0:0]
		for i, a := range t.aggs {
			to[ng+i] = -1
			if !aggNeed[i] {
				continue
			}
			to[ng+i] = ng + len(aggs)
			aggs = append(aggs, a)
			if a.Arg != nil {
				markRefs(a.Arg, childNeed)
			}
		}
		child, childTo := p.prune(t.child, childNeed)
		p.rebindAll(t.groupExprs, childTo)
		for i := range aggs {
			if aggs[i].Arg != nil {
				aggs[i].Arg = p.rebind(aggs[i].Arg, childTo)
			}
		}
		out := newAggNode(child, t.groupExprs, t.groupNames, aggs)
		out.forceHash = t.forceHash
		return out, to

	case *modelJoinNode:
		// The operator passes its input through and appends the prediction
		// columns; its model inputs stay whether or not anything above reads
		// them.
		cw := width(t.child)
		childNeed := append([]bool(nil), need[:cw]...)
		for _, c := range t.inputCols {
			childNeed[c] = true
		}
		child, childTo := p.prune(t.child, childNeed)
		inputs := make([]int, len(t.inputCols))
		for i, c := range t.inputCols {
			inputs[i] = childTo[c]
		}
		to := append([]int(nil), childTo...)
		for i := cw; i < len(need); i++ {
			to = append(to, width(child)+i-cw)
		}
		return newModelJoinNode(child, t.meta, inputs, t.device), to

	default:
		// Leaves without a projection (virtual tables, the one-row relation).
		to := make([]int, len(need))
		for i := range to {
			to[i] = i
		}
		return n, to
	}
}

// composable reports whether substituting below's expressions into exprs
// evaluates nothing twice: every computed expression of below is referenced
// at most once (bare columns and constants may repeat freely).
func composable(exprs []expr.Expr, below *projectNode) bool {
	refs := make([]int, len(below.exprs))
	for _, e := range exprs {
		walkColRefs(e, func(c *expr.ColRef) { refs[c.Idx]++ })
	}
	for i, e := range below.exprs {
		switch e.(type) {
		case *expr.ColRef, *expr.Const:
		default:
			if refs[i] > 1 {
				return false
			}
		}
	}
	return true
}
