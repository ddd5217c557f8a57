package exec

import (
	"context"
	"fmt"

	"indbml/internal/engine/storage"
	"indbml/internal/engine/types"
	"indbml/internal/engine/vector"
)

// Scan reads one partition of a table snapshot, applying projection and
// zone-map block pruning in the storage layer (Sec. 4.4's layer filter on
// the model table is realized as a RangeFilter here). Every scan of one
// statement reads the same snapshot of a table, so an UPDATE committed while
// the statement runs is in all of its partitions or in none.
type Scan struct {
	Snap      *storage.Snapshot
	Partition int
	Proj      []int
	Filters   []storage.RangeFilter

	// Ctx, when set, is checked on every Next call: scans are the leaves of
	// every plan, so a canceled query stops pulling blocks within one batch
	// regardless of what pipeline sits above.
	Ctx context.Context

	schema  *types.Schema
	scanner *storage.Scanner
	buf     *vector.Batch
}

// NewScan constructs a scan over partition pi of snap with optional
// projection (nil = all columns) and zone-map filters.
func NewScan(snap *storage.Snapshot, pi int, proj []int, filters []storage.RangeFilter) (*Scan, error) {
	schema := snap.Schema()
	if proj != nil {
		cols := make([]types.Column, len(proj))
		for i, c := range proj {
			if c < 0 || c >= schema.Len() {
				return nil, fmt.Errorf("exec: projected column %d out of range (table has %d)", c, schema.Len())
			}
			cols[i] = schema.Col(c)
		}
		schema = types.NewSchema(cols...)
	}
	return &Scan{Snap: snap, Partition: pi, Proj: proj, Filters: filters, schema: schema}, nil
}

// Schema implements Operator.
func (s *Scan) Schema() *types.Schema { return s.schema }

// Open implements Operator.
func (s *Scan) Open() error {
	sc, err := s.Snap.NewScanner(s.Partition, s.Proj, s.Filters)
	if err != nil {
		return err
	}
	s.scanner = sc
	// A batch never holds more than the snapshot: a small partition gets
	// columns of its own size, not vector.Size.
	s.buf = vector.NewBatch(s.schema, min(vector.Size, sc.Rows()))
	return nil
}

// Next implements Operator.
func (s *Scan) Next() (*vector.Batch, error) {
	if s.Ctx != nil {
		if err := s.Ctx.Err(); err != nil {
			return nil, err
		}
	}
	if !s.scanner.Next(s.buf) {
		return nil, nil
	}
	return s.buf, nil
}

// Close implements Operator.
func (s *Scan) Close() error { return nil }

// PrunedBlocks reports how many blocks the storage layer skipped via zone
// maps during the last execution (none before Open).
func (s *Scan) PrunedBlocks() int {
	if s.scanner == nil {
		return 0
	}
	return s.scanner.PrunedBlocks
}

// ScannedBytes reports the compressed bytes of every block the storage
// layer actually decoded during the last execution (none before Open).
func (s *Scan) ScannedBytes() int64 {
	if s.scanner == nil {
		return 0
	}
	return s.scanner.ScannedBytes
}
