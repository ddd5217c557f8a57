// Package plan binds parsed SQL against the catalog and produces physical
// operator trees. It implements the engine-side optimizations the paper's
// generated queries rely on: predicate pushdown into scans (zone-map block
// pruning, Sec. 4.4), filter-before-join, constant folding, order-based
// aggregation for partition-aligned grouping, and partition parallelism via
// per-partition plan instances under an Exchange (Sec. 4.4/5.2).
package plan

import (
	"fmt"
	"strings"

	"indbml/internal/core/relmodel"
	"indbml/internal/engine/exec"
	"indbml/internal/engine/expr"
	"indbml/internal/engine/sql"
	"indbml/internal/engine/storage"
	"indbml/internal/engine/types"
)

// Catalog is what the planner needs from the database: table lookup, model
// metadata lookup, and a factory lowering MODEL JOIN to the native operator
// (wired up by the db facade so the planner stays decoupled from the
// operator implementation).
type Catalog interface {
	// Table resolves a base table.
	Table(name string) (*storage.Table, error)
	// Model resolves a model's catalog entry (Sec. 5.5: the shape the
	// planner types a MODEL JOIN with before any operator is built); it
	// returns an error for tables not registered as models.
	Model(name string) (*relmodel.Meta, error)
	// NewModelJoin builds a native ModelJoin operator over child. inputCols
	// are child ordinals fed to the model; device is "cpu", "gpu" or "".
	NewModelJoin(model string, child exec.Operator, inputCols []int, device string) (exec.Operator, error)
}

// scopeCol is one column visible to expression binding.
type scopeCol struct {
	qual string // table alias / name qualifier, lower-cased
	name string // column name, lower-cased
	typ  types.T
}

// scope is the ordered column list of the current FROM context.
type scope struct {
	cols []scopeCol
}

// Len and Col let the bound columns be checked without building a schema
// (modeljoin.Columns).
func (s *scope) Len() int { return len(s.cols) }

func (s *scope) Col(i int) types.Column {
	return types.Column{Name: s.cols[i].name, Type: s.cols[i].typ}
}

func (s *scope) schema() *types.Schema {
	cols := make([]types.Column, len(s.cols))
	for i, c := range s.cols {
		cols[i] = types.Column{Name: c.name, Type: c.typ}
	}
	return types.NewSchema(cols...)
}

// resolve finds the ordinal of a (possibly qualified) column.
func (s *scope) resolve(qual, name string) (int, types.T, error) {
	qual, name = strings.ToLower(qual), strings.ToLower(name)
	found := -1
	for i, c := range s.cols {
		if c.name != name {
			continue
		}
		if qual != "" && c.qual != qual {
			continue
		}
		if found >= 0 {
			return 0, types.Unknown, fmt.Errorf("plan: ambiguous column %q", name)
		}
		found = i
	}
	if found < 0 {
		if qual != "" {
			return 0, types.Unknown, fmt.Errorf("plan: unknown column %s.%s", qual, name)
		}
		return 0, types.Unknown, fmt.Errorf("plan: unknown column %q", name)
	}
	return found, s.cols[found].typ, nil
}

// concat merges two scopes (join).
func (s *scope) concat(o *scope) *scope {
	return &scope{cols: append(append([]scopeCol(nil), s.cols...), o.cols...)}
}

// BindConstExpr binds a constant expression (literals, arithmetic, CASE,
// scalar functions — no column references), for INSERT ... VALUES rows.
func (pl *Planner) BindConstExpr(e sql.Expr) (expr.Expr, error) {
	bound, err := bindExpr(e, &scope{})
	if err != nil {
		return nil, err
	}
	return expr.Fold(bound), nil
}

// BindSchemaExpr binds an expression against a table schema: column
// references resolve to ordinals in schema order, optionally qualified by
// the table name. DELETE/UPDATE use it for WHERE predicates and SET
// assignments, which see the full row of the target table.
func (pl *Planner) BindSchemaExpr(e sql.Expr, table string, schema *types.Schema) (expr.Expr, error) {
	sc := &scope{}
	for i := 0; i < schema.Len(); i++ {
		c := schema.Col(i)
		sc.cols = append(sc.cols, scopeCol{qual: strings.ToLower(table), name: strings.ToLower(c.Name), typ: c.Type})
	}
	bound, err := bindExpr(e, sc)
	if err != nil {
		return nil, err
	}
	return expr.Fold(bound), nil
}

// bindExpr converts an AST expression into a bound, vectorized expression.
// Aggregate function calls are rejected; the select binder intercepts them
// before calling this.
func bindExpr(e sql.Expr, sc *scope) (expr.Expr, error) {
	switch e := e.(type) {
	case *sql.Ident:
		idx, t, err := sc.resolve(e.Table, e.Name)
		if err != nil {
			return nil, err
		}
		return expr.NewColRef(idx, e.Name, t), nil
	case *sql.NumberLit:
		return bindNumber(e.Text)
	case *sql.StringLit:
		return expr.NewConst(types.StringDatum(e.Val)), nil
	case *sql.BoolLit:
		return expr.NewConst(types.BoolDatum(e.Val)), nil
	case *sql.NullLit:
		return expr.NewConst(types.NullDatum(types.Float64)), nil
	case *sql.BinExpr:
		l, err := bindExpr(e.L, sc)
		if err != nil {
			return nil, err
		}
		r, err := bindExpr(e.R, sc)
		if err != nil {
			return nil, err
		}
		op, err := bindOp(e.Op)
		if err != nil {
			return nil, err
		}
		return expr.NewBinOp(op, l, r)
	case *sql.UnaryExpr:
		in, err := bindExpr(e.E, sc)
		if err != nil {
			return nil, err
		}
		if e.Op == "NOT" {
			return expr.NewUnaryOp(expr.OpNot, in)
		}
		return expr.NewUnaryOp(expr.OpNeg, in)
	case *sql.FuncCall:
		if _, isAgg := exec.ParseAggFunc(e.Name); isAgg {
			return nil, fmt.Errorf("plan: aggregate %s not allowed here", e.Name)
		}
		args := make([]expr.Expr, len(e.Args))
		for i, a := range e.Args {
			var err error
			if args[i], err = bindExpr(a, sc); err != nil {
				return nil, err
			}
		}
		return expr.NewFunc(e.Name, args)
	case *sql.CaseExpr:
		whens := make([]expr.When, len(e.Whens))
		for i, w := range e.Whens {
			cond, err := bindExpr(w.Cond, sc)
			if err != nil {
				return nil, err
			}
			then, err := bindExpr(w.Then, sc)
			if err != nil {
				return nil, err
			}
			whens[i] = expr.When{Cond: cond, Then: then}
		}
		var elseE expr.Expr
		if e.Else != nil {
			var err error
			if elseE, err = bindExpr(e.Else, sc); err != nil {
				return nil, err
			}
		}
		return expr.NewCase(whens, elseE)
	case *sql.CastExpr:
		in, err := bindExpr(e.E, sc)
		if err != nil {
			return nil, err
		}
		t, err := types.ParseType(e.Type)
		if err != nil {
			return nil, err
		}
		return expr.NewCast(in, t), nil
	case *sql.IsNullExpr:
		in, err := bindExpr(e.E, sc)
		if err != nil {
			return nil, err
		}
		return expr.NewIsNull(in, e.Not), nil
	case *sql.InExpr:
		// Rewrite e IN (a, b, …) as (e = a OR e = b OR …), the standard
		// expansion for literal lists.
		lhs, err := bindExpr(e.E, sc)
		if err != nil {
			return nil, err
		}
		var out expr.Expr
		for _, item := range e.List {
			rhs, err := bindExpr(item, sc)
			if err != nil {
				return nil, err
			}
			eq, err := expr.NewBinOp(expr.OpEq, lhs, rhs)
			if err != nil {
				return nil, err
			}
			if out == nil {
				out = eq
				continue
			}
			if out, err = expr.NewBinOp(expr.OpOr, out, eq); err != nil {
				return nil, err
			}
		}
		if e.Not {
			return expr.NewUnaryOp(expr.OpNot, out)
		}
		return out, nil
	case *sql.BetweenExpr:
		v, err := bindExpr(e.E, sc)
		if err != nil {
			return nil, err
		}
		lo, err := bindExpr(e.Lo, sc)
		if err != nil {
			return nil, err
		}
		hi, err := bindExpr(e.Hi, sc)
		if err != nil {
			return nil, err
		}
		ge, err := expr.NewBinOp(expr.OpGe, v, lo)
		if err != nil {
			return nil, err
		}
		le, err := expr.NewBinOp(expr.OpLe, v, hi)
		if err != nil {
			return nil, err
		}
		both, err := expr.NewBinOp(expr.OpAnd, ge, le)
		if err != nil {
			return nil, err
		}
		if e.Not {
			return expr.NewUnaryOp(expr.OpNot, both)
		}
		return both, nil
	default:
		return nil, fmt.Errorf("plan: cannot bind expression %T", e)
	}
}

// bindNumber types integer literals as the narrowest integer (so that
// int-vs-REAL comparisons promote to REAL, keeping the generated ML queries
// in 4-byte floats end to end) and decimal literals as DOUBLE.
func bindNumber(text string) (expr.Expr, error) {
	d, err := expr.ParseNumber(text)
	if err != nil {
		return nil, err
	}
	return expr.NewConst(d), nil
}

func bindOp(op string) (expr.Op, error) {
	switch op {
	case "+":
		return expr.OpAdd, nil
	case "-":
		return expr.OpSub, nil
	case "*":
		return expr.OpMul, nil
	case "/":
		return expr.OpDiv, nil
	case "%":
		return expr.OpMod, nil
	case "=":
		return expr.OpEq, nil
	case "<>":
		return expr.OpNe, nil
	case "<":
		return expr.OpLt, nil
	case "<=":
		return expr.OpLe, nil
	case ">":
		return expr.OpGt, nil
	case ">=":
		return expr.OpGe, nil
	case "AND":
		return expr.OpAnd, nil
	case "OR":
		return expr.OpOr, nil
	}
	return 0, fmt.Errorf("plan: unknown operator %q", op)
}

// ContainsAgg reports whether the AST expression contains an aggregate
// function call: how the planner, and the coordinator splitting a SELECT
// into shard fragments, tell an aggregate expression.
func ContainsAgg(e sql.Expr) bool {
	switch e := e.(type) {
	case *sql.FuncCall:
		if _, ok := exec.ParseAggFunc(e.Name); ok {
			return true
		}
		for _, a := range e.Args {
			if ContainsAgg(a) {
				return true
			}
		}
	case *sql.BinExpr:
		return ContainsAgg(e.L) || ContainsAgg(e.R)
	case *sql.UnaryExpr:
		return ContainsAgg(e.E)
	case *sql.CaseExpr:
		for _, w := range e.Whens {
			if ContainsAgg(w.Cond) || ContainsAgg(w.Then) {
				return true
			}
		}
		if e.Else != nil {
			return ContainsAgg(e.Else)
		}
	case *sql.CastExpr:
		return ContainsAgg(e.E)
	case *sql.BetweenExpr:
		return ContainsAgg(e.E) || ContainsAgg(e.Lo) || ContainsAgg(e.Hi)
	case *sql.IsNullExpr:
		return ContainsAgg(e.E)
	case *sql.InExpr:
		if ContainsAgg(e.E) {
			return true
		}
		for _, item := range e.List {
			if ContainsAgg(item) {
				return true
			}
		}
	}
	return false
}
