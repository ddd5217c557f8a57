package plan

import (
	"fmt"
	"sort"

	"indbml/internal/engine/expr"
	"indbml/internal/engine/sql"
	"indbml/internal/engine/storage"
	"indbml/internal/engine/types"
)

// DML is a bound UPDATE or DELETE, shaped for storage.Table.Update/Delete:
// the expressions read a batch holding only the Read columns, in that order.
type DML struct {
	// Read lists the table columns the predicate and SET expressions
	// reference, ascending.
	Read []int
	// Filters are the zone-map bounds the predicate implies.
	Filters []storage.RangeFilter
	// Pred selects the rows; nil selects every row.
	Pred expr.Expr
	// Set lists the assigned columns; Exprs[i], cast to the column's type,
	// computes column Set[i]'s new value from the pre-update row. A column
	// assigned twice keeps its last assignment.
	Set   []int
	Exprs []expr.Expr
}

// BindDML binds a DELETE (no assignments) or UPDATE against a table schema.
func (pl *Planner) BindDML(table string, schema *types.Schema, where sql.Expr, cols []string, exprs []sql.Expr) (*DML, error) {
	d := &DML{}
	if where != nil {
		pred, err := pl.BindSchemaExpr(where, table, schema)
		if err != nil {
			return nil, err
		}
		if pred.Type() != types.Bool {
			return nil, fmt.Errorf("db: WHERE clause must be boolean, got %s", pred.Type())
		}
		d.Pred = pred
		for _, cj := range splitConjuncts(pred) {
			if rf, ok := extractZoneFilter(cj); ok {
				d.Filters = append(d.Filters, rf)
			}
		}
	}
	slot := map[int]int{} // column -> index in Set
	for i, name := range cols {
		c, ok := schema.Lookup(name)
		if !ok {
			return nil, fmt.Errorf("db: column %q does not exist in %s", name, table)
		}
		e, err := pl.BindSchemaExpr(exprs[i], table, schema)
		if err != nil {
			return nil, err
		}
		e = expr.Fold(expr.NewCast(e, schema.Col(c).Type))
		if j, ok := slot[c]; ok {
			d.Exprs[j] = e
			continue
		}
		slot[c] = len(d.Set)
		d.Set = append(d.Set, c)
		d.Exprs = append(d.Exprs, e)
	}

	// Rebind every column reference to its position among the read columns.
	var bound []*expr.Expr
	if d.Pred != nil {
		bound = append(bound, &d.Pred)
	}
	for i := range d.Exprs {
		bound = append(bound, &d.Exprs[i])
	}
	pos := map[int]int{}
	for _, e := range bound {
		walkColRefs(*e, func(c *expr.ColRef) { pos[c.Idx] = 0 })
	}
	for c := range pos {
		d.Read = append(d.Read, c)
	}
	sort.Ints(d.Read)
	for i, c := range d.Read {
		pos[c] = i
	}
	for _, e := range bound {
		out := mapColRefs(*e, func(c int) int { return pos[c] })
		if out == nil {
			return nil, fmt.Errorf("db: cannot evaluate %s", *e)
		}
		*e = out
	}
	return d, nil
}
