package storage

import (
	"math/rand"
	"sync"
	"testing"

	"indbml/internal/engine/types"
	"indbml/internal/engine/vector"
)

func TestVersionBumpsOnAppend(t *testing.T) {
	tbl := NewTable("t", testSchema(), Options{Partitions: 2})
	if tbl.Version() != 0 {
		t.Fatalf("fresh table version = %d, want 0", tbl.Version())
	}
	rng := rand.New(rand.NewSource(5))
	loadRows(t, tbl, 10, rng)
	if got := tbl.Version(); got != 1 {
		t.Errorf("version after one 10-row Append = %d, want 1", got)
	}
	loadRows(t, tbl, 1, rng)
	if got := tbl.Version(); got != 2 {
		t.Errorf("version after a second Append = %d, want 2", got)
	}
	loadRows(t, tbl, 0, rng)
	if got := tbl.Version(); got != 2 {
		t.Errorf("an empty Append moved the version to %d", got)
	}
}

// where is a one-column MatchFunc for tests: the batch holds an Int64
// column, pred picks rows, and an UPDATE assigns set(v) to every assigned
// column.
func where(pred func(int64) bool, set func(int64) int64, nset int) MatchFunc {
	return func(b *vector.Batch) ([]int, []*vector.Vector, error) {
		var hits []int
		out := vector.New(types.Int64, b.Len())
		out.SetLen(b.Len())
		for i, v := range b.Vecs[0].Int64s() {
			if pred(v) {
				hits = append(hits, i)
				if set != nil {
					out.Int64s()[i] = set(v)
				}
			}
		}
		vals := make([]*vector.Vector, nset)
		for i := range vals {
			vals[i] = out
		}
		return hits, vals, nil
	}
}

// TestReplacePartition: a DELETE replaces the matching blocks of every
// partition it touches under one version bump.
func TestReplacePartition(t *testing.T) {
	tbl := NewTable("t", testSchema(), Options{Partitions: 2})
	rng := rand.New(rand.NewSource(6))
	loadRows(t, tbl, 100, rng)
	v := tbl.Version()

	n, err := tbl.Delete([]int{0}, nil, where(func(id int64) bool { return id%2 == 1 }, nil, 0))
	if err != nil {
		t.Fatal(err)
	}
	if n != 50 {
		t.Errorf("deleted %d rows, want 50", n)
	}
	if got := tbl.Version(); got != v+1 {
		t.Errorf("version after one DELETE = %d, want %d", got, v+1)
	}
	if got := tbl.PartitionRows(0) + tbl.PartitionRows(1); got != 50 {
		t.Errorf("partitions hold %d rows after DELETE, want 50", got)
	}
	got := scanAll(t, tbl, nil, nil)
	if got.Len() != 50 {
		t.Errorf("scanned %d rows after DELETE, want 50", got.Len())
	}
	for i, id := range got.Vecs[0].Int64s() {
		if id%2 == 1 {
			t.Fatalf("row %d: deleted id %d survived", i, id)
		}
	}

	if _, err := tbl.Delete([]int{9}, nil, where(nil, nil, 0)); err == nil {
		t.Error("expected out-of-range column error")
	}
	if _, err := tbl.Update([]int{0}, nil, []int{1}, where(func(int64) bool { return true }, nil, 1)); err == nil {
		t.Error("expected a type error for BIGINT values assigned to an INTEGER column")
	}
	if tbl.Version() != v+1 {
		t.Error("a failed statement bumped the version")
	}
}

func TestReplacePartitionCrossesBlockBoundary(t *testing.T) {
	schema := types.NewSchema(types.Column{Name: "x", Type: types.Int64})
	tbl := NewTable("t", schema, Options{Partitions: 1})
	n := 2*BlockSize + 37
	appendRows(t, tbl, intRows(n))
	// Negate every 1000th value, and a run straddling the first block end.
	hit := func(x int64) bool { return x%1000 == 0 || (x >= BlockSize-3 && x < BlockSize+3) }
	if _, err := tbl.Update([]int{0}, nil, []int{0}, where(hit, func(x int64) int64 { return -x }, 1)); err != nil {
		t.Fatal(err)
	}
	got := scanAll(t, tbl, nil, nil)
	if got.Len() != n {
		t.Fatalf("scanned %d rows, want %d", got.Len(), n)
	}
	for i := 0; i < n; i++ {
		want := int64(i)
		if hit(want) {
			want = -want
		}
		if got.Vecs[0].Int64s()[i] != want {
			t.Fatalf("row %d = %d after update, want %d", i, got.Vecs[0].Int64s()[i], want)
		}
	}
	// A filtered scan must see the moved values: the rebuilt blocks carry
	// fresh zone maps.
	lo := types.Int64Datum(-BlockSize - 2)
	hi := types.Int64Datum(-BlockSize + 3)
	if got := scanAll(t, tbl, nil, []RangeFilter{{Col: 0, Lo: &lo, Hi: &hi}}); got.Len() == 0 {
		t.Error("zone maps pruned the block holding the updated values")
	}
}

// TestScannerSnapshotSurvivesReplace opens a scanner, deletes every row
// underneath it, and checks the scan still returns the pre-delete contents.
func TestScannerSnapshotSurvivesReplace(t *testing.T) {
	schema := types.NewSchema(types.Column{Name: "x", Type: types.Int64})
	tbl := NewTable("t", schema, Options{Partitions: 1})
	const n = 3 * BlockSize
	appendRows(t, tbl, intRows(n))

	sc, err := tbl.NewScanner(0, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tbl.Delete(nil, nil, func(b *vector.Batch) ([]int, []*vector.Vector, error) {
		hits := make([]int, b.Len())
		for i := range hits {
			hits[i] = i
		}
		return hits, nil, nil
	}); err != nil { // wipe it
		t.Fatal(err)
	}
	buf := vector.NewBatch(sc.Schema(), vector.Size)
	got := 0
	for sc.Next(buf) {
		got += buf.Len()
	}
	if got != n {
		t.Errorf("snapshot scan returned %d rows, want pre-delete %d", got, n)
	}
	// A fresh scanner sees the new (empty) contents.
	sc2, _ := tbl.NewScanner(0, nil, nil)
	if sc2.Next(buf) {
		t.Error("fresh scanner returned rows from deleted-away blocks")
	}
	if tbl.RowCount() != 0 {
		t.Errorf("RowCount = %d after deleting everything", tbl.RowCount())
	}
}

// TestConcurrentScanAndMutate hammers a table with concurrent appends,
// UPDATE/DELETE commits, and scans. Run under -race this verifies DML and
// queries never touch shared state unsynchronized.
func TestConcurrentScanAndMutate(t *testing.T) {
	schema := types.NewSchema(types.Column{Name: "x", Type: types.Int64})
	tbl := NewTable("t", schema, Options{Partitions: 2})
	appendRows(t, tbl, intRows(2*BlockSize))

	var writers, readers sync.WaitGroup
	stop := make(chan struct{})
	// Writers: appends on one goroutine, DML on another; both loop until the
	// readers are done.
	writers.Add(1)
	go func() {
		defer writers.Done()
		b := vector.NewBatch(schema, 100)
		for _, row := range intRows(100) {
			_ = b.AppendRow(row...)
		}
		for {
			select {
			case <-stop:
				return
			default:
				if err := tbl.Append(b); err != nil {
					t.Error(err)
					return
				}
			}
		}
	}()
	writers.Add(1)
	go func() {
		defer writers.Done()
		negate := where(func(x int64) bool { return x%3 == 0 }, func(x int64) int64 { return -x }, 1)
		drop := where(func(x int64) bool { return x < -BlockSize }, nil, 0)
		for {
			select {
			case <-stop:
				return
			default:
				if _, err := tbl.Update([]int{0}, nil, []int{0}, negate); err != nil {
					t.Error(err)
					return
				}
				if _, err := tbl.Delete([]int{0}, nil, drop); err != nil {
					t.Error(err)
					return
				}
			}
		}
	}()
	// Readers bound the test duration.
	for r := 0; r < 4; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for k := 0; k < 50; k++ {
				for p := 0; p < 2; p++ {
					sc, err := tbl.NewScanner(p, nil, nil)
					if err != nil {
						t.Error(err)
						return
					}
					buf := vector.NewBatch(sc.Schema(), vector.Size)
					for sc.Next(buf) {
					}
				}
				_ = tbl.RowCount()
				_ = tbl.Version()
				_ = tbl.MemSize()
			}
		}()
	}
	readers.Wait()
	close(stop)
	writers.Wait()
}
