package storage

import (
	"fmt"
	"sync"
	"sync/atomic"

	"indbml/internal/engine/types"
	"indbml/internal/engine/vector"
)

// Options configure table creation.
type Options struct {
	// Partitions is the number of partitions; the paper's experiments use
	// 12. Defaults to 1.
	Partitions int
	// Sorted declares that rows arrive sorted by column SortedBy within
	// each partition. The planner exploits this for the order-based
	// (pipelined) aggregation of Sec. 4.4.
	Sorted   bool
	SortedBy int
	// Unique declares column UniqueKey a unique row identifier (the ID
	// column of Sec. 4.2). Grouping on it is partition-aligned, which lets
	// the planner parallelize the generated ML queries without
	// repartitioning (Sec. 4.4).
	Unique    bool
	UniqueKey int
}

// Table is a partitioned, compressed column-store table. Rows enter through
// Append, a batch at a time, and change through Update and Delete; scans are
// concurrent and see a consistent snapshot of the blocks present when the
// scanner was created (blocks are immutable once built, and mutations only
// append blocks or commit copy-on-write block lists), so DML and queries
// never race.
//
// Every non-empty mutation — Append, UPDATE, DELETE — commits under one
// write lock and one bump of a monotonic version counter. The engine keys
// its cross-query model-artifact cache on this version: a model table whose
// version is unchanged serves cached weight matrices, and any write
// invalidates them implicitly.
type Table struct {
	Name   string
	Schema *types.Schema
	opts   Options

	mu      sync.RWMutex // guards parts contents (chunks, rows)
	parts   []*partition
	version atomic.Uint64
	// dml serializes every writer: Update and Delete compute their new blocks
	// from a snapshot and commit them by position, so nothing may commit in
	// between, and Append advances next.
	dml sync.Mutex
	// next is the partition Append deals its first row to.
	next int
}

type partition struct {
	rows   int
	chunks [][]*block // [column][block]
}

// NewTable creates an empty table.
func NewTable(name string, schema *types.Schema, opts Options) *Table {
	if opts.Partitions <= 0 {
		opts.Partitions = 1
	}
	t := &Table{Name: name, Schema: schema, opts: opts}
	for i := 0; i < opts.Partitions; i++ {
		t.parts = append(t.parts, &partition{chunks: make([][]*block, schema.Len())})
	}
	return t
}

// Version returns the table's mutation counter. It starts at 0 for an empty
// table and increases by one on every non-empty Append and on every UPDATE
// or DELETE that changed a row; equal versions imply identical contents (the converse need
// not hold).
func (t *Table) Version() uint64 { return t.version.Load() }

// SetSortedBy declares the column rows are sorted by within partitions.
func (t *Table) SetSortedBy(col int) { t.opts.Sorted, t.opts.SortedBy = true, col }

// SetUniqueKey declares the table's unique row-identifier column.
func (t *Table) SetUniqueKey(col int) { t.opts.Unique, t.opts.UniqueKey = true, col }

// UniqueKey returns the declared unique key column, or -1.
func (t *Table) UniqueKey() int {
	if !t.opts.Unique {
		return -1
	}
	return t.opts.UniqueKey
}

// SortedBy returns the declared sort column, or -1 when no order is known.
func (t *Table) SortedBy() int {
	if !t.opts.Sorted {
		return -1
	}
	return t.opts.SortedBy
}

// Partitions returns the partition count.
func (t *Table) Partitions() int { return len(t.parts) }

// RowCount returns the total number of rows.
func (t *Table) RowCount() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	n := 0
	for _, p := range t.parts {
		n += p.rows
	}
	return n
}

// PartitionRows returns the number of rows in partition i.
func (t *Table) PartitionRows(i int) int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.parts[i].rows
}

// MemSize returns the approximate compressed footprint in bytes.
func (t *Table) MemSize() int64 {
	t.mu.RLock()
	defer t.mu.RUnlock()
	var s int64
	for _, p := range t.parts {
		for _, chunk := range p.chunks {
			for _, b := range chunk {
				s += b.memSize()
			}
		}
	}
	return s
}

// Append adds the rows of b, whose columns must match the table's schema in
// number and type. Rows are dealt round-robin to the partitions, continuing
// from where the previous Append stopped, so row i of a fresh table's first
// Append lands in partition i mod Partitions(). Each partition's share is
// compressed into blocks of BlockSize rows, the last one possibly shorter,
// and the whole batch commits under one lock and one version bump: a
// snapshot holds all of it or none. An empty batch changes nothing.
func (t *Table) Append(b *vector.Batch) error {
	if len(b.Vecs) != t.Schema.Len() {
		return fmt.Errorf("storage: batch has %d columns, table %s has %d", len(b.Vecs), t.Name, t.Schema.Len())
	}
	n := b.Len()
	for c, v := range b.Vecs {
		if col := t.Schema.Col(c); v.Type() != col.Type || v.Len() != n {
			return fmt.Errorf("storage: batch column %d holds %d %s values, table %s wants %d %s values for %s", c, v.Len(), v.Type(), t.Name, n, col.Type, col.Name)
		}
	}
	if n == 0 {
		return nil
	}
	t.dml.Lock()
	defer t.dml.Unlock()
	nparts := len(t.parts)
	added := make([][][]*block, nparts) // [partition][column][new block]
	rows := make([]int, nparts)
	for k := 0; k < min(n, nparts); k++ {
		// Partition pi's share is rows k, k+nparts, …: its blocks encode
		// straight from b's columns.
		pi := (t.next + k) % nparts
		rows[pi] = (n - k + nparts - 1) / nparts
		added[pi] = make([][]*block, len(b.Vecs))
		for c, v := range b.Vecs {
			for lo := 0; lo < rows[pi]; lo += BlockSize {
				added[pi][c] = append(added[pi][c], buildStrided(v, span{first: k + lo*nparts, stride: nparts, n: min(BlockSize, rows[pi]-lo)}))
			}
		}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for pi, cols := range added {
		p := t.parts[pi]
		for c, blocks := range cols {
			p.chunks[c] = append(p.chunks[c], blocks...)
		}
		p.rows += rows[pi]
	}
	t.next = (t.next + n) % nparts
	t.version.Add(1)
	return nil
}

// RangeFilter is a conservative zone-map predicate: blocks whose [min, max]
// range for column Col cannot intersect [Lo, Hi] are skipped entirely. This
// implements the block pruning of Sec. 4.4 (the layer filter on the model
// table). Nil bounds are unbounded.
type RangeFilter struct {
	Col    int
	Lo, Hi *types.Datum
}

// Snapshot is a consistent view of every partition's block lists, taken
// under one read lock: each UPDATE or DELETE is in it wholly or not at all.
// Blocks are immutable, so a snapshot stays valid however the table changes
// later; two snapshots of one table can be compared block by block
// (ChangesSince).
type Snapshot struct {
	t     *Table
	parts [][][]*block // [partition][column][block]
}

// Snapshot captures the table's current blocks. Copying the slice headers is
// enough: appends only add blocks past the captured lengths, and DML commits
// fresh lists without touching the old ones.
func (t *Table) Snapshot() *Snapshot {
	t.mu.RLock()
	defer t.mu.RUnlock()
	s := &Snapshot{t: t, parts: make([][][]*block, len(t.parts))}
	for pi := range t.parts {
		s.parts[pi] = t.parts[pi].snapshot()
	}
	return s
}

func (p *partition) snapshot() [][]*block {
	chunks := make([][]*block, len(p.chunks))
	for c, chunk := range p.chunks {
		chunks[c] = chunk[:len(chunk):len(chunk)]
	}
	return chunks
}

// Partitions returns the partition count.
func (s *Snapshot) Partitions() int { return len(s.parts) }

// Schema returns the table's schema.
func (s *Snapshot) Schema() *types.Schema { return s.t.Schema }

// NewScanner creates a scanner over partition pi of the snapshot; see
// Table.NewScanner.
func (s *Snapshot) NewScanner(pi int, proj []int, filters []RangeFilter) (*Scanner, error) {
	if pi < 0 || pi >= len(s.parts) {
		return nil, fmt.Errorf("storage: partition %d out of range for table %s", pi, s.t.Name)
	}
	return s.t.newScanner(s.parts[pi], proj, filters)
}

// BlockRef names one row block of a snapshot: block Block of partition Part,
// across all columns.
type BlockRef struct{ Part, Block int }

// ScanBlock creates a scanner over the rows of one block of the snapshot.
func (s *Snapshot) ScanBlock(ref BlockRef, proj []int) (*Scanner, error) {
	if ref.Part < 0 || ref.Part >= len(s.parts) || ref.Block < 0 || ref.Block >= len(s.parts[ref.Part][0]) {
		return nil, fmt.Errorf("storage: block %+v out of range for table %s", ref, s.t.Name)
	}
	chunks := make([][]*block, len(s.parts[ref.Part]))
	for c, chunk := range s.parts[ref.Part] {
		chunks[c] = chunk[ref.Block : ref.Block+1 : ref.Block+1]
	}
	return s.t.newScanner(chunks, proj, nil)
}

// Changes is how a snapshot differs from an older one of the same table,
// decided by block identity: blocks are immutable, so an unchanged pointer
// means unchanged content.
type Changes struct {
	// Reshaped reports that rows were added or removed: some partition's
	// block count or some block's row count differs. Blocks and Cols are
	// then not computed.
	Reshaped bool
	// Cols lists the columns with at least one replaced block, ascending.
	Cols []int
	// Blocks lists the row blocks with at least one replaced column block.
	Blocks []BlockRef
}

// ChangesSince compares s against base, an earlier snapshot of the same
// table.
func (s *Snapshot) ChangesSince(base *Snapshot) Changes {
	if s.t != base.t || len(s.parts) != len(base.parts) {
		return Changes{Reshaped: true}
	}
	var ch Changes
	colChanged := make([]bool, s.t.Schema.Len())
	for pi, chunks := range s.parts {
		old := base.parts[pi]
		if len(chunks[0]) != len(old[0]) {
			return Changes{Reshaped: true}
		}
		for bi := range chunks[0] {
			changed := false
			for c := range chunks {
				if chunks[c][bi] == old[c][bi] {
					continue
				}
				if chunks[c][bi].n != old[c][bi].n {
					return Changes{Reshaped: true}
				}
				changed, colChanged[c] = true, true
			}
			if changed {
				ch.Blocks = append(ch.Blocks, BlockRef{Part: pi, Block: bi})
			}
		}
	}
	for c, changed := range colChanged {
		if changed {
			ch.Cols = append(ch.Cols, c)
		}
	}
	return ch
}

// Scanner iterates one partition of a table, producing batches of at most
// vector.Size rows. Blocks failing any RangeFilter's zone-map check are
// pruned without decompression.
//
// A scanner reads the snapshot of compressed blocks present at creation:
// blocks are immutable, so concurrent appends or DML commits neither tear
// rows nor surface to an in-flight scan.
type Scanner struct {
	chunks  [][]*block // [column][block] snapshot
	proj    []int
	filters []RangeFilter
	schema  *types.Schema

	blockIdx int
	rowInBlk int
	// PrunedBlocks counts zone-map-skipped blocks, exposed for tests and
	// the ablation benchmarks.
	PrunedBlocks int
	// ScannedBytes accumulates the compressed footprint of every projected
	// block actually decoded (pruned blocks cost nothing), feeding the
	// flight recorder's bytes_scanned accounting; ScannedBlocks counts those
	// column blocks.
	ScannedBytes  int64
	ScannedBlocks int
}

// NewScanner creates a scanner over partition pi projecting the given
// columns (nil = all), reading the partition's blocks as of this call.
func (t *Table) NewScanner(pi int, proj []int, filters []RangeFilter) (*Scanner, error) {
	if pi < 0 || pi >= len(t.parts) {
		return nil, fmt.Errorf("storage: partition %d out of range for table %s", pi, t.Name)
	}
	t.mu.RLock()
	chunks := t.parts[pi].snapshot()
	t.mu.RUnlock()
	return t.newScanner(chunks, proj, filters)
}

func (t *Table) newScanner(chunks [][]*block, proj []int, filters []RangeFilter) (*Scanner, error) {
	if proj == nil {
		proj = make([]int, t.Schema.Len())
		for i := range proj {
			proj[i] = i
		}
	}
	cols := make([]types.Column, len(proj))
	for i, c := range proj {
		if c < 0 || c >= t.Schema.Len() {
			return nil, fmt.Errorf("storage: projected column %d out of range for table %s", c, t.Name)
		}
		cols[i] = t.Schema.Col(c)
	}
	if err := t.checkFilters(filters); err != nil {
		return nil, err
	}
	return &Scanner{chunks: chunks, proj: proj, filters: filters, schema: types.NewSchema(cols...)}, nil
}

func (t *Table) checkFilters(filters []RangeFilter) error {
	for _, f := range filters {
		if f.Col < 0 || f.Col >= t.Schema.Len() {
			return fmt.Errorf("storage: filter column %d out of range for table %s", f.Col, t.Name)
		}
	}
	return nil
}

// Rows returns the number of rows in the scanner's snapshot, pruned blocks
// included: an upper bound on what it produces.
func (s *Scanner) Rows() int {
	n := 0
	if len(s.chunks) > 0 {
		for _, b := range s.chunks[0] {
			n += b.n
		}
	}
	return n
}

// Schema returns the scanner's output schema (the projection).
func (s *Scanner) Schema() *types.Schema { return s.schema }

// Next fills dst with the next batch and reports whether any rows were
// produced. dst must have been created with the scanner's schema. A batch
// holds vector.Size rows, decoded across block boundaries, unless the
// partition runs out first.
func (s *Scanner) Next(dst *vector.Batch) bool {
	dst.Reset()
	n := 0
	for n < vector.Size && len(s.chunks) > 0 && s.blockIdx < len(s.chunks[0]) {
		if s.rowInBlk == 0 {
			if pruned(s.chunks, s.blockIdx, s.filters) {
				s.PrunedBlocks++
				s.blockIdx++
				continue
			}
			for _, c := range s.proj {
				s.ScannedBytes += s.chunks[c][s.blockIdx].memSize()
			}
			s.ScannedBlocks += len(s.proj)
		}
		blkLen := s.chunks[0][s.blockIdx].n
		take := min(blkLen-s.rowInBlk, vector.Size-n)
		for vi, c := range s.proj {
			s.chunks[c][s.blockIdx].decodeInto(dst.Vecs[vi], s.rowInBlk, s.rowInBlk+take)
		}
		n += take
		s.rowInBlk += take
		if s.rowInBlk == blkLen {
			s.rowInBlk = 0
			s.blockIdx++
		}
	}
	dst.SetLen(n)
	return n > 0
}

// pruned reports whether block blockIdx fails a filter's zone-map check.
func pruned(chunks [][]*block, blockIdx int, filters []RangeFilter) bool {
	for _, f := range filters {
		if !chunks[f.Col][blockIdx].overlaps(f.Lo, f.Hi) {
			return true
		}
	}
	return false
}
