package exec

import (
	"context"

	"indbml/internal/engine/storage"
	"indbml/internal/engine/types"
	"indbml/internal/engine/vector"
)

// Scan reads one partition of a column-store table, applying projection and
// zone-map block pruning in the storage layer (Sec. 4.4's layer filter on
// the model table is realized as a RangeFilter here).
type Scan struct {
	Table     *storage.Table
	Partition int
	Proj      []int
	Filters   []storage.RangeFilter

	// Ctx, when set, is checked on every Next call: scans are the leaves of
	// every plan, so a canceled query stops pulling blocks within one batch
	// regardless of what pipeline sits above.
	Ctx context.Context

	scanner *storage.Scanner
	buf     *vector.Batch
}

// NewScan constructs a scan over partition pi with optional projection
// (nil = all columns) and zone-map filters.
func NewScan(t *storage.Table, pi int, proj []int, filters []storage.RangeFilter) (*Scan, error) {
	// Create a scanner eagerly to validate arguments and expose the schema
	// before Open.
	s, err := t.NewScanner(pi, proj, filters)
	if err != nil {
		return nil, err
	}
	return &Scan{Table: t, Partition: pi, Proj: proj, Filters: filters, scanner: s}, nil
}

// Schema implements Operator.
func (s *Scan) Schema() *types.Schema { return s.scanner.Schema() }

// Open implements Operator.
func (s *Scan) Open() error {
	sc, err := s.Table.NewScanner(s.Partition, s.Proj, s.Filters)
	if err != nil {
		return err
	}
	s.scanner = sc
	// A batch never holds more than the snapshot: a small partition gets
	// columns of its own size, not vector.Size.
	s.buf = vector.NewBatch(sc.Schema(), min(vector.Size, sc.Rows()))
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
// maps during the last execution.
func (s *Scan) PrunedBlocks() int { return s.scanner.PrunedBlocks }

// ScannedBytes reports the compressed bytes of every block the storage
// layer actually decoded during the last execution.
func (s *Scan) ScannedBytes() int64 { return s.scanner.ScannedBytes }
