package exec

import (
	"container/heap"

	"indbml/internal/engine/types"
	"indbml/internal/engine/vector"
)

// TopN returns the first n rows under the sort keys without materializing
// the whole input: it keeps a bounded heap of the current best n rows. The
// planner fuses ORDER BY + LIMIT into this operator, turning the paper's
// "top suspicious payments" style queries from a full sort into a streaming
// pass.
type TopN struct {
	Child Operator
	Keys  []SortKey
	N     int

	rows    *rowHeap
	emitPos int
	sorted  [][]types.Datum
	schema  *types.Schema
}

// NewTopN constructs the operator.
func NewTopN(child Operator, keys []SortKey, n int) *TopN {
	return &TopN{Child: child, Keys: keys, N: n, schema: child.Schema()}
}

// Schema implements Operator.
func (t *TopN) Schema() *types.Schema { return t.schema }

// rowHeap is a max-heap under the sort order: the root is the *worst* kept
// row, evicted whenever a better one arrives.
type rowHeap struct {
	keys []SortKey
	// rows[i] holds the key datums followed by the full row datums.
	rows [][]types.Datum
	nkey int
}

func (h *rowHeap) Len() int { return len(h.rows) }

func (h *rowHeap) Less(i, j int) bool { return h.after(h.rows[i], h.rows[j]) }

// after reports whether row a sorts after row b (a is worse).
func (h *rowHeap) after(a, b []types.Datum) bool {
	for k := range h.keys {
		c := a[k].Compare(b[k])
		if c == 0 {
			continue
		}
		if h.keys[k].Desc {
			return c < 0
		}
		return c > 0
	}
	return false
}

func (h *rowHeap) Swap(i, j int) { h.rows[i], h.rows[j] = h.rows[j], h.rows[i] }

// Push implements heap.Interface.
func (h *rowHeap) Push(x any) { h.rows = append(h.rows, x.([]types.Datum)) }

// Pop implements heap.Interface.
func (h *rowHeap) Pop() any {
	last := h.rows[len(h.rows)-1]
	h.rows = h.rows[:len(h.rows)-1]
	return last
}

// Open implements Operator: it drains the child keeping only the best N.
func (t *TopN) Open() error {
	if err := t.Child.Open(); err != nil {
		return err
	}
	t.rows = &rowHeap{keys: t.Keys, nkey: len(t.Keys)}
	t.emitPos = 0
	t.sorted = nil
	keyEvs := keyEvaluators(t.Keys)
	keyVecs := make([]*vector.Vector, len(t.Keys))
	for {
		b, err := t.Child.Next()
		if err != nil {
			return err
		}
		if b == nil {
			break
		}
		if err := evalInto(keyVecs, keyEvs, b); err != nil {
			return err
		}
		for r := 0; r < b.Len(); r++ {
			entry := make([]types.Datum, 0, len(t.Keys)+t.schema.Len())
			for _, kv := range keyVecs {
				entry = append(entry, kv.Datum(r))
			}
			entry = append(entry, b.Row(r)...)
			if t.rows.Len() < t.N {
				heap.Push(t.rows, entry)
				continue
			}
			if t.N > 0 && t.rows.after(t.rows.rows[0], entry) {
				t.rows.rows[0] = entry
				heap.Fix(t.rows, 0)
			}
		}
	}
	// Extract in reverse (heap pops worst-first).
	t.sorted = make([][]types.Datum, t.rows.Len())
	for i := len(t.sorted) - 1; i >= 0; i-- {
		t.sorted[i] = heap.Pop(t.rows).([]types.Datum)
	}
	return nil
}

// Next implements Operator.
func (t *TopN) Next() (*vector.Batch, error) {
	if t.emitPos >= len(t.sorted) {
		return nil, nil
	}
	n := len(t.sorted) - t.emitPos
	if n > vector.Size {
		n = vector.Size
	}
	out := vector.NewBatch(t.schema, n)
	for i := 0; i < n; i++ {
		row := t.sorted[t.emitPos+i][len(t.Keys):]
		if err := out.AppendRow(row...); err != nil {
			return nil, err
		}
	}
	t.emitPos += n
	return out, nil
}

// Close implements Operator.
func (t *TopN) Close() error {
	t.rows, t.sorted = nil, nil
	return t.Child.Close()
}
