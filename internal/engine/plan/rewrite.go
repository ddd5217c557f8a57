package plan

import (
	"indbml/internal/engine/expr"
)

// mapColRefs returns a copy of e with every column-reference ordinal passed
// through fn; fn returning a negative value aborts and mapColRefs returns
// nil (the expression references columns outside the mappable range).
func mapColRefs(e expr.Expr, fn func(int) int) expr.Expr {
	return rewriteColRefs(e, func(c *expr.ColRef) expr.Expr {
		idx := fn(c.Idx)
		if idx < 0 {
			return nil
		}
		return expr.NewColRef(idx, c.Name, c.Typ)
	})
}

// rewriteColRefs returns a copy of e with every column reference replaced by
// fn's result, which must have the reference's type; a nil result aborts and
// rewriteColRefs returns nil.
func rewriteColRefs(e expr.Expr, fn func(*expr.ColRef) expr.Expr) expr.Expr {
	switch t := e.(type) {
	case *expr.ColRef:
		return fn(t)
	case *expr.Const:
		return t
	case *expr.Cast:
		in := rewriteColRefs(t.E, fn)
		if in == nil {
			return nil
		}
		return expr.NewCast(in, t.To)
	case *expr.BinOp:
		l := rewriteColRefs(t.L, fn)
		r := rewriteColRefs(t.R, fn)
		if l == nil || r == nil {
			return nil
		}
		out, err := expr.NewBinOp(t.Op, l, r)
		if err != nil {
			return nil
		}
		return out
	case *expr.UnaryOp:
		in := rewriteColRefs(t.E, fn)
		if in == nil {
			return nil
		}
		out, err := expr.NewUnaryOp(t.Op, in)
		if err != nil {
			return nil
		}
		return out
	case *expr.Func:
		args := make([]expr.Expr, len(t.Args))
		for i, a := range t.Args {
			if args[i] = rewriteColRefs(a, fn); args[i] == nil {
				return nil
			}
		}
		out, err := expr.NewFunc(t.Name, args)
		if err != nil {
			return nil
		}
		return out
	case *expr.IsNull:
		in := rewriteColRefs(t.E, fn)
		if in == nil {
			return nil
		}
		return expr.NewIsNull(in, t.Not)
	case *expr.Case:
		whens := make([]expr.When, len(t.Whens))
		for i, w := range t.Whens {
			c := rewriteColRefs(w.Cond, fn)
			th := rewriteColRefs(w.Then, fn)
			if c == nil || th == nil {
				return nil
			}
			whens[i] = expr.When{Cond: c, Then: th}
		}
		var elseE expr.Expr
		if t.Else != nil {
			if elseE = rewriteColRefs(t.Else, fn); elseE == nil {
				return nil
			}
		}
		out, err := expr.NewCase(whens, elseE)
		if err != nil {
			return nil
		}
		return out
	default:
		return nil
	}
}

// walkColRefs calls fn for every column reference in e.
func walkColRefs(e expr.Expr, fn func(*expr.ColRef)) {
	switch t := e.(type) {
	case *expr.ColRef:
		fn(t)
	case *expr.Cast:
		walkColRefs(t.E, fn)
	case *expr.BinOp:
		walkColRefs(t.L, fn)
		walkColRefs(t.R, fn)
	case *expr.UnaryOp:
		walkColRefs(t.E, fn)
	case *expr.IsNull:
		walkColRefs(t.E, fn)
	case *expr.Func:
		for _, a := range t.Args {
			walkColRefs(a, fn)
		}
	case *expr.Case:
		for _, w := range t.Whens {
			walkColRefs(w.Cond, fn)
			walkColRefs(w.Then, fn)
		}
		if t.Else != nil {
			walkColRefs(t.Else, fn)
		}
	}
}

// colRefRange reports the min and max column ordinal referenced (min > max
// means no references).
func colRefRange(e expr.Expr) (int, int) {
	min, max := 1<<30, -1
	walkColRefs(e, func(c *expr.ColRef) {
		if c.Idx < min {
			min = c.Idx
		}
		if c.Idx > max {
			max = c.Idx
		}
	})
	return min, max
}

// exprEqual structurally compares two bound expressions. Used to match
// select-list subtrees against GROUP BY expressions.
func exprEqual(a, b expr.Expr) bool {
	switch at := a.(type) {
	case *expr.ColRef:
		bt, ok := b.(*expr.ColRef)
		return ok && at.Idx == bt.Idx
	case *expr.Const:
		bt, ok := b.(*expr.Const)
		return ok && at.Val.Type == bt.Val.Type && at.Val.Compare(bt.Val) == 0
	case *expr.Cast:
		bt, ok := b.(*expr.Cast)
		return ok && at.To == bt.To && exprEqual(at.E, bt.E)
	case *expr.BinOp:
		bt, ok := b.(*expr.BinOp)
		return ok && at.Op == bt.Op && exprEqual(at.L, bt.L) && exprEqual(at.R, bt.R)
	case *expr.UnaryOp:
		bt, ok := b.(*expr.UnaryOp)
		return ok && at.Op == bt.Op && exprEqual(at.E, bt.E)
	case *expr.Func:
		bt, ok := b.(*expr.Func)
		if !ok || at.Kind != bt.Kind || len(at.Args) != len(bt.Args) {
			return false
		}
		for i := range at.Args {
			if !exprEqual(at.Args[i], bt.Args[i]) {
				return false
			}
		}
		return true
	case *expr.Case:
		bt, ok := b.(*expr.Case)
		if !ok || len(at.Whens) != len(bt.Whens) {
			return false
		}
		for i := range at.Whens {
			if !exprEqual(at.Whens[i].Cond, bt.Whens[i].Cond) || !exprEqual(at.Whens[i].Then, bt.Whens[i].Then) {
				return false
			}
		}
		if (at.Else == nil) != (bt.Else == nil) {
			return false
		}
		return at.Else == nil || exprEqual(at.Else, bt.Else)
	}
	return false
}

// splitConjuncts flattens a predicate on AND.
func splitConjuncts(e expr.Expr) []expr.Expr {
	if b, ok := e.(*expr.BinOp); ok && b.Op == expr.OpAnd {
		return append(splitConjuncts(b.L), splitConjuncts(b.R)...)
	}
	return []expr.Expr{e}
}

// andAll recombines conjuncts; nil for an empty list.
func andAll(conjuncts []expr.Expr) expr.Expr {
	var out expr.Expr
	for _, c := range conjuncts {
		if out == nil {
			out = c
			continue
		}
		combined, err := expr.NewBinOp(expr.OpAnd, out, c)
		if err != nil {
			return out
		}
		out = combined
	}
	return out
}
