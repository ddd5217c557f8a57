package expr

import (
	"indbml/internal/engine/types"
	"indbml/internal/engine/vector"
)

// Evaluator evaluates one bound expression over a stream of batches. It owns
// one result vector per computed node of the tree, allocated the first time
// the node runs and refilled on every batch after, so a warm evaluator
// allocates nothing.
//
// Ownership follows the operator contract: the vector Eval returns, and
// every vector inside the tree, stays valid until the next Eval on the same
// evaluator. The caller may read it and narrow it in place; a consumer that
// keeps values longer copies them. A column reference hands back the input
// batch's own vector, which belongs to whoever produced the batch.
//
// A bound tree is immutable and may be shared, by the partition instances
// of an Exchange for one; an Evaluator is not. Each operator instance builds
// its evaluators at Open, so nothing outlives a statement.
type Evaluator struct {
	e Expr
	// slots[i] is the result vector of the i-th computed node in evaluation
	// order. Every node evaluates all of its children on every batch, so the
	// order depends only on the tree's shape and slot i always belongs to
	// the same node.
	slots []*vector.Vector
	next  int
}

// NewEvaluator returns an evaluator for e. It allocates no vectors until
// the first Eval.
func NewEvaluator(e Expr) Evaluator { return Evaluator{e: e} }

// NewEvaluators returns one evaluator per expression, in one allocation. A
// nil expression (COUNT(*)'s argument) gets an evaluator that must not be
// run.
func NewEvaluators(es []Expr) []Evaluator {
	evs := make([]Evaluator, len(es))
	for i, e := range es {
		evs[i].e = e
	}
	return evs
}

// Eval evaluates the expression over b.
func (ev *Evaluator) Eval(b *vector.Batch) (*vector.Vector, error) {
	ev.next = 0
	return ev.e.eval(ev, b)
}

// slot returns the next node's vector as the node left it, allocating it
// with room for n rows on first use.
func (ev *Evaluator) slot(t types.T, n int) *vector.Vector {
	if ev.next == len(ev.slots) {
		ev.slots = append(ev.slots, vector.New(t, n))
	}
	v := ev.slots[ev.next]
	ev.next++
	return v
}

// result returns the next node's vector sized to n rows without NULLs. Its
// values are stale; the node's kernel overwrites every one.
func (ev *Evaluator) result(t types.T, n int) *vector.Vector {
	v := ev.slot(t, n)
	v.Reset()
	v.Resize(n)
	return v
}

// evalAs evaluates e over b and converts the result to t.
func (ev *Evaluator) evalAs(e Expr, t types.T, b *vector.Batch) (*vector.Vector, error) {
	v, err := e.eval(ev, b)
	if err != nil || v.Type() == t {
		return v, err
	}
	out := ev.result(t, v.Len())
	return out, castInto(out, v)
}

// orNulls marks every row NULL in out that is NULL in in.
func orNulls(out, in *vector.Vector) {
	if nulls := in.Nulls(); nulls != nil {
		for i, isNull := range nulls {
			if isNull {
				out.SetNull(i)
			}
		}
	}
}
