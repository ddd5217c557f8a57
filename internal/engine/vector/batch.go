package vector

import (
	"fmt"
	"strings"

	"indbml/internal/engine/types"
)

// Batch is a horizontal slice of a relation: one vector per column, all of
// the same length. Batches flow between operators; a batch of length 0 from
// next() means end-of-stream in the Volcano convention used by the executor.
type Batch struct {
	Schema *types.Schema
	Vecs   []*Vector
	n      int
}

// NewBatch allocates a batch for the given schema with capacity cap per
// column.
func NewBatch(schema *types.Schema, capacity int) *Batch {
	b := &Batch{Schema: schema, Vecs: make([]*Vector, schema.Len())}
	for i := 0; i < schema.Len(); i++ {
		b.Vecs[i] = New(schema.Col(i).Type, capacity)
	}
	return b
}

// Len returns the number of tuples in the batch.
func (b *Batch) Len() int { return b.n }

// SetLen sets the tuple count on the batch and all its vectors.
func (b *Batch) SetLen(n int) {
	b.n = n
	for _, v := range b.Vecs {
		v.SetLen(n)
	}
}

// Reset empties the batch for reuse.
func (b *Batch) Reset() {
	b.n = 0
	for _, v := range b.Vecs {
		v.Reset()
	}
}

// AppendRow appends one row of datums.
func (b *Batch) AppendRow(row ...types.Datum) error {
	if len(row) != len(b.Vecs) {
		return fmt.Errorf("vector: row has %d values, schema has %d columns", len(row), len(b.Vecs))
	}
	for i, d := range row {
		b.Vecs[i].AppendDatum(d)
	}
	b.n++
	return nil
}

// Row materializes row i as datums, mainly for tests and result display.
func (b *Batch) Row(i int) []types.Datum {
	row := make([]types.Datum, len(b.Vecs))
	for c, v := range b.Vecs {
		row[c] = v.Datum(i)
	}
	return row
}

// Gather filters the batch in place to the rows listed in sel, which must be
// strictly ascending (a filter's selection). No column is reallocated.
func (b *Batch) Gather(sel []int) {
	for _, v := range b.Vecs {
		v.compact(sel)
	}
	b.n = len(sel)
}

// AppendBatch appends all rows of src (which must share the schema layout).
func (b *Batch) AppendBatch(src *Batch) {
	for i, v := range b.Vecs {
		v.AppendFrom(src.Vecs[i], nil)
	}
	b.n += src.n
}

// MemSize returns the approximate heap footprint of the batch in bytes.
func (b *Batch) MemSize() int64 {
	var size int64
	for _, v := range b.Vecs {
		size += v.MemSize()
	}
	return size
}

// String renders the batch as an ASCII table, for debugging and the REPL.
func (b *Batch) String() string {
	var sb strings.Builder
	for i := 0; i < b.Schema.Len(); i++ {
		if i > 0 {
			sb.WriteByte('\t')
		}
		sb.WriteString(b.Schema.Col(i).Name)
	}
	sb.WriteByte('\n')
	for r := 0; r < b.n; r++ {
		for c := range b.Vecs {
			if c > 0 {
				sb.WriteByte('\t')
			}
			sb.WriteString(b.Vecs[c].Datum(r).String())
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}
