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
	// guards are the enclosing nodes' claims on the node being evaluated:
	// a CASE arm keeps only the rows it takes, the right side of an AND
	// only the rows its left side leaves undecided (NULL or TRUE), of an OR
	// those its left side leaves NULL or FALSE. A node that can fail on a
	// row — a narrowing cast — fails only on a row every guard keeps.
	guards []guard
}

// guard keeps the rows where v, a BOOLEAN vector, is NULL or holds keep.
type guard struct {
	v    *vector.Vector
	keep bool
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
	ev.guards = ev.guards[:0]
	return ev.e.eval(ev, b)
}

// evalKept evaluates e over b for a parent that keeps only the rows where
// v is NULL or holds keep.
func (ev *Evaluator) evalKept(e Expr, b *vector.Batch, v *vector.Vector, keep bool) (*vector.Vector, error) {
	ev.guards = append(ev.guards, guard{v, keep})
	out, err := e.eval(ev, b)
	ev.guards = ev.guards[:len(ev.guards)-1]
	return out, err
}

// kept reports whether row r of the node being evaluated can reach the
// expression's result, that is whether every enclosing guard keeps it.
func (ev *Evaluator) kept(r int) bool {
	for _, g := range ev.guards {
		if !g.v.NullAt(r) && g.v.Bools()[r] != g.keep {
			return false
		}
	}
	return true
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

// evalAs evaluates e over b for a parent that keeps only the rows where v
// is NULL or holds keep, and converts the result to t, a type CASE promoted
// e's to: the conversion only widens and cannot fail.
func (ev *Evaluator) evalAs(e Expr, t types.T, b *vector.Batch, v *vector.Vector, keep bool) (*vector.Vector, error) {
	in, err := ev.evalKept(e, b, v, keep)
	if err != nil || in.Type() == t {
		return in, err
	}
	out := ev.result(t, in.Len())
	return out, castInto(ev, out, in)
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
