package db

import (
	"fmt"
	"strings"

	"indbml/internal/engine/expr"
	"indbml/internal/engine/plan"
	"indbml/internal/engine/sql"
	"indbml/internal/engine/storage"
	"indbml/internal/engine/types"
	"indbml/internal/engine/vector"
)

// INSERT, DELETE and UPDATE executors. An INSERT binds its VALUES into one
// typed batch and appends it; DELETE and UPDATE are bound over the columns
// they read, and storage evaluates them block by block — only blocks whose
// zone maps admit the predicate — rebuilding just the blocks (and, for an
// UPDATE, the columns) they change. Each statement commits under one version
// bump or not at all; the bump invalidates cached model artifacts built from
// the old contents.

func (d *Database) execInsert(s *sql.InsertStmt) error {
	b, err := d.BindInsert(s)
	if err != nil {
		return err
	}
	return d.appendRows(s.Table, b)
}

// BindInsert binds every VALUES cell, cast to its column's type, into one
// batch of the table's schema (unlisted columns stay NULL) without touching
// the table. A cell that is one literal token is written straight into its
// column; any other cell binds as a constant expression. An error names the
// statement's row, counted from 0. A coordinator binds a sharded INSERT here
// once and ships each shard its share of the batch.
func (d *Database) BindInsert(s *sql.InsertStmt) (*vector.Batch, error) {
	tbl, err := d.Table(s.Table)
	if err != nil {
		return nil, err
	}
	schema := tbl.Schema
	cols := make([]int, 0, schema.Len()) // the table column of each VALUES position
	listed := make([]bool, schema.Len())
	for _, name := range s.Cols {
		c, ok := schema.Lookup(name)
		if !ok {
			return nil, fmt.Errorf("db: column %q does not exist in %s", name, s.Table)
		}
		cols, listed[c] = append(cols, c), true
	}
	if len(s.Cols) == 0 {
		for c := range listed {
			cols, listed[c] = append(cols, c), true
		}
	}
	for ri := range s.Rows {
		if row := s.Row(ri); len(row) != len(cols) {
			return nil, fmt.Errorf("db: INSERT row %d has %d values, want %d", ri, len(row), len(cols))
		}
	}
	n := len(s.Rows)
	b := vector.NewBatch(schema, n)
	b.SetLen(n)
	for c, v := range b.Vecs {
		if !listed[c] {
			for r := range n {
				v.SetNull(r)
			}
		}
	}
	for vi, c := range cols {
		v := b.Vecs[c]
		for ri := range n {
			if err := bindCell(v, ri, s.Cells[ri*len(cols)+vi]); err != nil {
				return nil, fmt.Errorf("db: INSERT row %d: %w", ri, err)
			}
		}
	}
	return b, nil
}

// bindCell writes one VALUES cell, cast to v's type, into row r of v.
func bindCell(v *vector.Vector, r int, cell sql.Cell) error {
	switch cell.Lit {
	case sql.TokNumber:
		return expr.SetNumber(v, r, cell.Text)
	case sql.TokString:
		return expr.SetString(v, r, cell.Text)
	case sql.TokKeyword: // NULL, TRUE or FALSE
		if cell.Text == "NULL" {
			v.SetNull(r)
		} else {
			expr.SetBool(v, r, cell.Text == "TRUE")
		}
		return nil
	}
	e, err := (&plan.Planner{}).BindConstExpr(cell.Expr)
	if err != nil {
		return err
	}
	e = expr.Fold(expr.NewCast(e, v.Type()))
	val, ok := expr.IsConst(e)
	if !ok {
		oneRow := vector.NewBatch(types.NewSchema(), 1)
		oneRow.SetLen(1)
		ev := expr.NewEvaluator(e)
		out, err := ev.Eval(oneRow)
		if err != nil {
			return err
		}
		val = out.Datum(0)
	}
	v.SetDatum(r, val)
	return nil
}

// appendRows commits an INSERT's rows, text or shipped: b's columns must
// match the table's in count, name and type, and the rows commit with one
// Table.Append — one version bump — or not at all.
func (d *Database) appendRows(table string, b *vector.Batch) error {
	tbl, err := d.Table(table)
	if err != nil {
		return err
	}
	if b.Schema.Len() != tbl.Schema.Len() {
		return fmt.Errorf("db: INSERT into %s carries %d columns, the table has %d", table, b.Schema.Len(), tbl.Schema.Len())
	}
	for c := range b.Schema.Len() {
		got, want := b.Schema.Col(c), tbl.Schema.Col(c)
		if !strings.EqualFold(got.Name, want.Name) || got.Type != want.Type {
			return fmt.Errorf("db: INSERT into %s carries column %d as %s %s, the table has %s %s", table, c, got.Name, got.Type, want.Name, want.Type)
		}
	}
	return tbl.Append(b)
}

func (d *Database) execDelete(s *sql.DeleteStmt) error {
	tbl, dml, err := d.bindDML(s.Table, s.Where, nil, nil)
	if err != nil {
		return err
	}
	_, err = tbl.Delete(dml.Read, dml.Filters, matcher(dml))
	return err
}

func (d *Database) execUpdate(s *sql.UpdateStmt) error {
	tbl, dml, err := d.bindDML(s.Table, s.Where, s.Cols, s.Exprs)
	if err != nil {
		return err
	}
	_, err = tbl.Update(dml.Read, dml.Filters, dml.Set, matcher(dml))
	return err
}

func (d *Database) bindDML(table string, where sql.Expr, cols []string, exprs []sql.Expr) (*storage.Table, *plan.DML, error) {
	tbl, err := d.Table(table)
	if err != nil {
		return nil, nil, err
	}
	pl := &plan.Planner{}
	dml, err := pl.BindDML(table, tbl.Schema, where, cols, exprs)
	return tbl, dml, err
}

// matcher evaluates the bound statement over one batch: the predicate gives
// the hits (NULL counts as no match, per SQL semantics), and the SET
// expressions — evaluated against the pre-update batch — the new values,
// which storage copies before the next call.
func matcher(dml *plan.DML) storage.MatchFunc {
	var hits []int
	pred := expr.NewEvaluator(dml.Pred)
	sets := expr.NewEvaluators(dml.Exprs)
	vals := make([]*vector.Vector, len(dml.Exprs))
	return func(b *vector.Batch) ([]int, []*vector.Vector, error) {
		hits = hits[:0]
		if dml.Pred == nil {
			for r := 0; r < b.Len(); r++ {
				hits = append(hits, r)
			}
		} else {
			v, err := pred.Eval(b)
			if err != nil {
				return nil, nil, err
			}
			nulls := v.Nulls() // nil without NULLs: one test per row, no call
			for r, ok := range v.Bools() {
				if ok && (nulls == nil || !nulls[r]) {
					hits = append(hits, r)
				}
			}
		}
		if len(hits) == 0 {
			return nil, nil, nil
		}
		for i := range sets {
			v, err := sets[i].Eval(b)
			if err != nil {
				return nil, nil, err
			}
			vals[i] = v
		}
		return hits, vals, nil
	}
}
