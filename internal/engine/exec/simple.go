package exec

import (
	"fmt"

	"indbml/internal/engine/expr"
	"indbml/internal/engine/types"
	"indbml/internal/engine/vector"
)

// Filter passes through rows for which the predicate evaluates to TRUE
// (NULL and FALSE both drop the row, per SQL semantics).
type Filter struct {
	Child Operator
	Pred  expr.Expr
	pred  expr.Evaluator
	sel   []int
}

// NewFilter constructs a filter; the predicate must be boolean.
func NewFilter(child Operator, pred expr.Expr) (*Filter, error) {
	if pred.Type() != types.Bool {
		return nil, fmt.Errorf("exec: filter predicate must be boolean, got %s", pred.Type())
	}
	return &Filter{Child: child, Pred: pred}, nil
}

// Schema implements Operator.
func (f *Filter) Schema() *types.Schema { return f.Child.Schema() }

// Open implements Operator.
func (f *Filter) Open() error {
	f.pred = expr.NewEvaluator(f.Pred)
	f.sel = make([]int, 0, vector.Size)
	return f.Child.Open()
}

// Next implements Operator.
func (f *Filter) Next() (*vector.Batch, error) {
	for {
		b, err := f.Child.Next()
		if err != nil || b == nil {
			return nil, err
		}
		v, err := f.pred.Eval(b)
		if err != nil {
			return nil, err
		}
		f.sel = f.sel[:0]
		bools := v.Bools()
		if v.HasNulls() {
			for i, ok := range bools {
				if ok && !v.NullAt(i) {
					f.sel = append(f.sel, i)
				}
			}
		} else {
			for i, ok := range bools {
				if ok {
					f.sel = append(f.sel, i)
				}
			}
		}
		if len(f.sel) == 0 {
			continue
		}
		if len(f.sel) < b.Len() {
			b.Gather(f.sel)
		}
		return b, nil
	}
}

// Close implements Operator.
func (f *Filter) Close() error { return f.Child.Close() }

// Project evaluates one expression per output column. Its output batch is
// a reused header: a bare column reference hands the child's vector through
// without a copy and a computed expression contributes the vector its
// evaluator owns, so a projection moves no values.
type Project struct {
	Child  Operator
	Exprs  []expr.Expr
	schema *types.Schema
	evs    []expr.Evaluator
	out    *vector.Batch
	// copies[i] is an owned vector for output column i, made the first time
	// the column turns out to repeat an earlier one (SELECT a, a AS b): two
	// output columns must not share a vector a consumer may narrow in place.
	copies []*vector.Vector
}

// NewProject constructs a projection with the given output column names.
func NewProject(child Operator, exprs []expr.Expr, names []string) (*Project, error) {
	if len(exprs) != len(names) {
		return nil, fmt.Errorf("exec: project has %d expressions but %d names", len(exprs), len(names))
	}
	cols := make([]types.Column, len(exprs))
	for i, e := range exprs {
		cols[i] = types.Column{Name: names[i], Type: e.Type()}
	}
	return &Project{Child: child, Exprs: exprs, schema: types.NewSchema(cols...)}, nil
}

// Schema implements Operator.
func (p *Project) Schema() *types.Schema { return p.schema }

// Open implements Operator.
func (p *Project) Open() error {
	p.evs = expr.NewEvaluators(p.Exprs)
	p.out = &vector.Batch{Schema: p.schema, Vecs: make([]*vector.Vector, len(p.Exprs))}
	p.copies = make([]*vector.Vector, len(p.Exprs))
	return p.Child.Open()
}

// Next implements Operator.
func (p *Project) Next() (*vector.Batch, error) {
	b, err := p.Child.Next()
	if err != nil || b == nil {
		return nil, err
	}
	for i := range p.evs {
		v, err := p.evs[i].Eval(b)
		if err != nil {
			return nil, err
		}
		for _, earlier := range p.out.Vecs[:i] {
			if earlier == v {
				if p.copies[i] == nil {
					p.copies[i] = vector.New(v.Type(), v.Len())
				}
				p.copies[i].CopyFrom(v, nil)
				v = p.copies[i]
				break
			}
		}
		p.out.Vecs[i] = v
	}
	p.out.SetLen(b.Len())
	return p.out, nil
}

// Close implements Operator.
func (p *Project) Close() error { return p.Child.Close() }
