package db

import (
	"indbml/internal/engine/plan"
	"indbml/internal/engine/sql"
	"indbml/internal/engine/storage"
	"indbml/internal/engine/vector"
)

// DELETE and UPDATE executors. The planner binds the statement over the
// columns it reads; storage evaluates it block by block — only blocks whose
// zone maps admit the predicate — and rebuilds just the blocks (and, for an
// UPDATE, the columns) it changes, committing them under one version bump.
// That bump invalidates cached model artifacts built from the old contents.

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
// expressions — evaluated against the pre-update batch — the new values.
func matcher(dml *plan.DML) storage.MatchFunc {
	var hits []int
	return func(b *vector.Batch) ([]int, []*vector.Vector, error) {
		hits = hits[:0]
		if dml.Pred == nil {
			for r := 0; r < b.Len(); r++ {
				hits = append(hits, r)
			}
		} else {
			v, err := dml.Pred.Eval(b)
			if err != nil {
				return nil, nil, err
			}
			for r, ok := range v.Bools() {
				if ok && !v.NullAt(r) {
					hits = append(hits, r)
				}
			}
		}
		if len(hits) == 0 {
			return nil, nil, nil
		}
		vals := make([]*vector.Vector, len(dml.Exprs))
		for i, e := range dml.Exprs {
			v, err := e.Eval(b)
			if err != nil {
				return nil, nil, err
			}
			vals[i] = v
		}
		return hits, vals, nil
	}
}
