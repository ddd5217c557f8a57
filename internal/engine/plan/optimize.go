package plan

import (
	"indbml/internal/engine/expr"
	"indbml/internal/engine/storage"
	"indbml/internal/engine/types"
)

// optimize rewrites the bound tree: constant folding, splitting filters into
// conjuncts, turning cross-join + equality predicates into hash-join keys,
// pushing one-sided predicates below joins, and attaching zone-map range
// filters to scans (Sec. 4.4's layer filter and block pruning).
func (pl *Planner) optimize(n node) node {
	switch t := n.(type) {
	case *filterNode:
		child := pl.optimize(t.child)
		conjuncts := splitConjuncts(expr.Fold(t.pred))
		return pl.pushFilter(child, conjuncts)
	case *projectNode:
		t.child = pl.optimize(t.child)
		return t
	case *joinNode:
		t.left = pl.optimize(t.left)
		t.right = pl.optimize(t.right)
		return t
	case *aggNode:
		t.child = pl.optimize(t.child)
		return t
	case *modelJoinNode:
		t.child = pl.optimize(t.child)
		return t
	case *sortNode:
		t.child = pl.optimize(t.child)
		return t
	case *limitNode:
		t.child = pl.optimize(t.child)
		return t
	case *aliasNode:
		t.child = pl.optimize(t.child)
		return t
	default:
		return n
	}
}

// pushFilter places the conjuncts as deep as possible above/below child.
func (pl *Planner) pushFilter(child node, conjuncts []expr.Expr) node {
	if len(conjuncts) == 0 {
		return child
	}
	switch c := child.(type) {
	case *joinNode:
		leftW := c.left.scope().schema().Len()
		var residual []expr.Expr
		for _, cj := range conjuncts {
			if lk, rk, ok := extractEquiKey(cj, leftW); ok {
				c.leftKeys = append(c.leftKeys, lk)
				c.rightKeys = append(c.rightKeys, rk)
				continue
			}
			min, max := colRefRange(cj)
			switch {
			case max < 0:
				// No column references: a constant predicate; keep above.
				residual = append(residual, cj)
			case max < leftW:
				c.left = pl.pushFilter(c.left, []expr.Expr{cj})
			case min >= leftW:
				shifted := mapColRefs(cj, func(i int) int { return i - leftW })
				if shifted == nil {
					residual = append(residual, cj)
					continue
				}
				c.right = pl.pushFilter(c.right, []expr.Expr{shifted})
			default:
				residual = append(residual, cj)
			}
		}
		if pred := andAll(residual); pred != nil {
			return &filterNode{child: c, pred: pred}
		}
		return c
	case *filterNode:
		// The lower filter's conjuncts first: they ran first, and a later
		// conjunct evaluates only on the rows the earlier ones keep.
		return pl.pushFilter(c.child, append(splitConjuncts(c.pred), conjuncts...))
	case *scanNode:
		if !pl.DisableZoneMaps {
			for _, cj := range conjuncts {
				if rf, ok := extractZoneFilter(cj); ok {
					c.zoneFilters = append(c.zoneFilters, rf)
				}
			}
		}
		// Zone maps are block-granular, so the exact predicate always stays.
		return &filterNode{child: c, pred: andAll(conjuncts)}
	default:
		return &filterNode{child: child, pred: andAll(conjuncts)}
	}
}

// extractEquiKey recognizes `leftExpr = rightExpr` conjuncts where one side
// references only left-input columns and the other only right-input columns,
// and returns them as join keys (the right key re-bound to the right child's
// ordinals).
func extractEquiKey(cj expr.Expr, leftW int) (lk, rk expr.Expr, ok bool) {
	b, isBin := cj.(*expr.BinOp)
	if !isBin || b.Op != expr.OpEq {
		return nil, nil, false
	}
	lMin, lMax := colRefRange(b.L)
	rMin, rMax := colRefRange(b.R)
	leftOnly := func(min, max int) bool { return max >= 0 && max < leftW && min >= 0 }
	rightOnly := func(min, max int) bool { return max >= 0 && min >= leftW }
	switch {
	case leftOnly(lMin, lMax) && rightOnly(rMin, rMax):
		rShift := mapColRefs(b.R, func(i int) int { return i - leftW })
		if rShift == nil {
			return nil, nil, false
		}
		return b.L, rShift, true
	case rightOnly(lMin, lMax) && leftOnly(rMin, rMax):
		lShift := mapColRefs(b.L, func(i int) int { return i - leftW })
		if lShift == nil {
			return nil, nil, false
		}
		return b.R, lShift, true
	}
	return nil, nil, false
}

// extractZoneFilter recognizes `col CMP literal` (either orientation) over a
// numeric column and converts it into a conservative block-range filter.
func extractZoneFilter(cj expr.Expr) (storage.RangeFilter, bool) {
	b, isBin := cj.(*expr.BinOp)
	if !isBin {
		return storage.RangeFilter{}, false
	}
	col, colOK := b.L.(*expr.ColRef)
	lit, litOK := constOf(b.R)
	op := b.Op
	if !colOK || !litOK {
		// Try the flipped orientation, mirroring the comparison.
		col, colOK = b.R.(*expr.ColRef)
		lit, litOK = constOf(b.L)
		if !colOK || !litOK {
			return storage.RangeFilter{}, false
		}
		switch op {
		case expr.OpLt:
			op = expr.OpGt
		case expr.OpLe:
			op = expr.OpGe
		case expr.OpGt:
			op = expr.OpLt
		case expr.OpGe:
			op = expr.OpLe
		}
	}
	if !col.Typ.IsNumeric() || !lit.Type.IsNumeric() || lit.Null {
		return storage.RangeFilter{}, false
	}
	// Convert the literal into the column's type conservatively: widen the
	// bound by one on integer truncation so pruning never drops matches.
	d := convertBound(lit, col.Typ)
	switch op {
	case expr.OpEq:
		return storage.RangeFilter{Col: col.Idx, Lo: &d, Hi: &d}, true
	case expr.OpGt, expr.OpGe:
		return storage.RangeFilter{Col: col.Idx, Lo: &d}, true
	case expr.OpLt, expr.OpLe:
		return storage.RangeFilter{Col: col.Idx, Hi: &d}, true
	}
	return storage.RangeFilter{}, false
}

func constOf(e expr.Expr) (types.Datum, bool) {
	folded := expr.Fold(e)
	return expr.IsConst(folded)
}

// convertBound widens a literal to the column type for zone-map comparison.
// Fractional values comparing against integer columns round outward, keeping
// pruning conservative.
func convertBound(d types.Datum, to types.T) types.Datum {
	if d.Type == to {
		return d
	}
	switch to {
	case types.Int32, types.Int64:
		f := d.Float()
		v := int64(f)
		// Keep both floor and ceil inside the block range by not moving the
		// bound toward the predicate: pruning only needs overlap tests, and
		// a one-off bound merely keeps an extra block alive.
		if to == types.Int32 {
			return types.Int32Datum(int32(v))
		}
		return types.Int64Datum(v)
	case types.Float32:
		return types.Float32Datum(float32(d.Float()))
	case types.Float64:
		return types.Float64Datum(d.Float())
	}
	return d
}
