package storage

import (
	"indbml/internal/engine/types"
	"indbml/internal/engine/vector"
)

// VirtualTable is a read-only table whose rows are synthesized on demand
// from live engine state (the query flight recorder, the metrics registry,
// the model artifact cache, ...) rather than stored in blocks. A scan takes
// one Snapshot at Open and then streams the returned batches without
// copying them again, so SELECT over a virtual table sees a consistent
// point-in-time view regardless of how long the reader takes to drain it.
//
// Implementations live next to the state they expose; the catalog only
// needs the interface. Snapshot must be safe for concurrent use.
type VirtualTable interface {
	// Name is the fully qualified table name, e.g. "system.queries".
	Name() string
	// Schema describes the synthesized columns.
	Schema() *types.Schema
	// Snapshot materializes the current rows as ready-to-stream batches.
	// The caller owns the returned batches; the implementation must not
	// retain or mutate them afterwards.
	Snapshot() ([]*vector.Batch, error)
}

// BatchBuilder accumulates datum rows into vector.Size-capped batches; the
// standard way for VirtualTable implementations to build a Snapshot.
type BatchBuilder struct {
	schema  *types.Schema
	batches []*vector.Batch
	cur     *vector.Batch
}

// NewBatchBuilder starts a builder for the given schema.
func NewBatchBuilder(schema *types.Schema) *BatchBuilder {
	return &BatchBuilder{schema: schema}
}

// Append adds one row. The row must match the schema arity; a mismatch is a
// programming error in the virtual table and panics.
func (b *BatchBuilder) Append(row ...types.Datum) {
	if b.cur == nil || b.cur.Len() >= vector.Size {
		b.cur = vector.NewBatch(b.schema, vector.Size)
		b.batches = append(b.batches, b.cur)
	}
	if err := b.cur.AppendRow(row...); err != nil {
		panic(err)
	}
}

// Batches returns the accumulated batches (nil when no rows were appended).
func (b *BatchBuilder) Batches() []*vector.Batch { return b.batches }

// NewVirtualTable declares a virtual table with a fixed name and schema
// whose rows come from fill: each Snapshot hands fill a fresh builder for
// the schema and returns what it appended. fill must be safe for concurrent
// use.
func NewVirtualTable(name string, schema *types.Schema, fill func(*BatchBuilder) error) VirtualTable {
	return &funcTable{name: name, schema: schema, fill: fill}
}

type funcTable struct {
	name   string
	schema *types.Schema
	fill   func(*BatchBuilder) error
}

func (t *funcTable) Name() string          { return t.name }
func (t *funcTable) Schema() *types.Schema { return t.schema }

func (t *funcTable) Snapshot() ([]*vector.Batch, error) {
	b := NewBatchBuilder(t.schema)
	if err := t.fill(b); err != nil {
		return nil, err
	}
	return b.Batches(), nil
}
