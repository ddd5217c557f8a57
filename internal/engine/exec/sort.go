package exec

import (
	"sort"

	"indbml/internal/engine/expr"
	"indbml/internal/engine/types"
	"indbml/internal/engine/vector"
)

// SortKey is one ORDER BY term.
type SortKey struct {
	E    expr.Expr
	Desc bool
}

// keyEvaluators returns one evaluator per sort key.
func keyEvaluators(keys []SortKey) []expr.Evaluator {
	evs := make([]expr.Evaluator, len(keys))
	for i, k := range keys {
		evs[i] = expr.NewEvaluator(k.E)
	}
	return evs
}

// Sort materializes its input and emits it ordered by the sort keys. It is
// a pipeline breaker; ML-To-SQL avoids planting sorts by exploiting
// order-preserving joins over pre-sorted tables instead (Sec. 4.4).
type Sort struct {
	Child Operator
	Keys  []SortKey

	data *vector.Batch
	perm []int
	pos  int
}

// NewSort constructs a sort operator.
func NewSort(child Operator, keys []SortKey) *Sort { return &Sort{Child: child, Keys: keys} }

// Schema implements Operator.
func (s *Sort) Schema() *types.Schema { return s.Child.Schema() }

// Open implements Operator: it drains and sorts the whole input.
func (s *Sort) Open() error {
	if err := s.Child.Open(); err != nil {
		return err
	}
	s.data = vector.NewBatch(s.Child.Schema(), vector.Size)
	keyVals := make([]*vector.Vector, len(s.Keys))
	for i, k := range s.Keys {
		keyVals[i] = vector.New(k.E.Type(), 0)
	}
	keyEvs := keyEvaluators(s.Keys)
	for {
		b, err := s.Child.Next()
		if err != nil {
			return err
		}
		if b == nil {
			break
		}
		for i := range keyEvs {
			v, err := keyEvs[i].Eval(b)
			if err != nil {
				return err
			}
			keyVals[i].AppendFrom(v, nil)
		}
		s.data.AppendBatch(b)
	}
	s.perm = make([]int, s.data.Len())
	for i := range s.perm {
		s.perm[i] = i
	}
	sort.SliceStable(s.perm, func(a, b int) bool {
		ia, ib := s.perm[a], s.perm[b]
		for ki, k := range s.Keys {
			c := keyVals[ki].Datum(ia).Compare(keyVals[ki].Datum(ib))
			if c != 0 {
				if k.Desc {
					return c > 0
				}
				return c < 0
			}
		}
		return false
	})
	s.pos = 0
	return nil
}

// Next implements Operator.
func (s *Sort) Next() (*vector.Batch, error) {
	if s.pos >= len(s.perm) {
		return nil, nil
	}
	n := len(s.perm) - s.pos
	if n > vector.Size {
		n = vector.Size
	}
	out := vector.NewBatch(s.Schema(), n)
	sel := s.perm[s.pos : s.pos+n]
	for c, v := range out.Vecs {
		v.CopyFrom(s.data.Vecs[c], sel)
	}
	out.SetLen(n)
	s.pos += n
	return out, nil
}

// Close implements Operator.
func (s *Sort) Close() error {
	s.data, s.perm = nil, nil
	return s.Child.Close()
}
