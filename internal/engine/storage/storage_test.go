package storage

import (
	"math/rand"
	"testing"
	"testing/quick"

	"indbml/internal/engine/types"
	"indbml/internal/engine/vector"
)

func testSchema() *types.Schema {
	return types.NewSchema(
		types.Column{Name: "id", Type: types.Int64},
		types.Column{Name: "grp", Type: types.Int32},
		types.Column{Name: "val", Type: types.Float32},
		types.Column{Name: "tag", Type: types.String},
	)
}

func loadRows(t *testing.T, tbl *Table, n int, rng *rand.Rand) [][]types.Datum {
	t.Helper()
	rows := make([][]types.Datum, 0, n)
	for i := 0; i < n; i++ {
		rows = append(rows, []types.Datum{
			types.Int64Datum(int64(i)),
			types.Int32Datum(int32(i % 7)),
			types.Float32Datum(rng.Float32()),
			types.StringDatum([]string{"a", "b", "c"}[i%3]),
		})
	}
	appendRows(t, tbl, rows)
	return rows
}

// appendRows appends rows to tbl in one Append.
func appendRows(t testing.TB, tbl *Table, rows [][]types.Datum) {
	t.Helper()
	b := vector.NewBatch(tbl.Schema, len(rows))
	for _, row := range rows {
		if err := b.AppendRow(row...); err != nil {
			t.Fatal(err)
		}
	}
	if err := tbl.Append(b); err != nil {
		t.Fatal(err)
	}
}

// intRows returns the one-column rows 0, 1, ..., n-1.
func intRows(n int) [][]types.Datum {
	rows := make([][]types.Datum, n)
	for i := range rows {
		rows[i] = []types.Datum{types.Int64Datum(int64(i))}
	}
	return rows
}

func scanAll(t *testing.T, tbl *Table, proj []int, filters []RangeFilter) *vector.Batch {
	t.Helper()
	var out *vector.Batch
	for p := 0; p < tbl.Partitions(); p++ {
		sc, err := tbl.NewScanner(p, proj, filters)
		if err != nil {
			t.Fatal(err)
		}
		if out == nil {
			out = vector.NewBatch(sc.Schema(), vector.Size)
		}
		buf := vector.NewBatch(sc.Schema(), vector.Size)
		for sc.Next(buf) {
			out.AppendBatch(buf)
		}
	}
	return out
}

func TestRoundTripSinglePartition(t *testing.T) {
	tbl := NewTable("t", testSchema(), Options{Partitions: 1})
	rng := rand.New(rand.NewSource(1))
	rows := loadRows(t, tbl, 20000, rng) // crosses block boundaries
	got := scanAll(t, tbl, nil, nil)
	if got.Len() != len(rows) {
		t.Fatalf("scanned %d rows, want %d", got.Len(), len(rows))
	}
	for i, want := range rows {
		for c, d := range want {
			if got.Vecs[c].Datum(i).Compare(d) != 0 {
				t.Fatalf("row %d col %d: got %v want %v", i, c, got.Vecs[c].Datum(i), d)
			}
		}
	}
}

func TestRoundTripPartitioned(t *testing.T) {
	tbl := NewTable("t", testSchema(), Options{Partitions: 12})
	rng := rand.New(rand.NewSource(2))
	rows := loadRows(t, tbl, 5000, rng)
	got := scanAll(t, tbl, nil, nil)
	if got.Len() != len(rows) {
		t.Fatalf("scanned %d rows, want %d", got.Len(), len(rows))
	}
	// Round-robin balance: partitions differ by at most one row.
	min, max := tbl.PartitionRows(0), tbl.PartitionRows(0)
	for p := 1; p < 12; p++ {
		n := tbl.PartitionRows(p)
		if n < min {
			min = n
		}
		if n > max {
			max = n
		}
	}
	if max-min > 1 {
		t.Errorf("unbalanced partitions: min %d max %d", min, max)
	}
	// All ids present exactly once.
	seen := map[int64]bool{}
	for i := 0; i < got.Len(); i++ {
		id := got.Vecs[0].Int64s()[i]
		if seen[id] {
			t.Fatalf("duplicate id %d", id)
		}
		seen[id] = true
	}
}

func TestProjection(t *testing.T) {
	tbl := NewTable("t", testSchema(), Options{})
	rng := rand.New(rand.NewSource(4))
	loadRows(t, tbl, 100, rng)
	got := scanAll(t, tbl, []int{2, 0}, nil)
	if got.Schema.Len() != 2 {
		t.Fatalf("projected schema has %d cols", got.Schema.Len())
	}
	if got.Schema.Col(0).Name != "val" || got.Schema.Col(1).Name != "id" {
		t.Fatalf("projection order wrong: %s", got.Schema)
	}
}

func TestZoneMapPruning(t *testing.T) {
	// Sorted int column: blocks have disjoint ranges, so a narrow range
	// filter must prune most blocks.
	schema := types.NewSchema(types.Column{Name: "x", Type: types.Int64})
	tbl := NewTable("t", schema, Options{Partitions: 1})
	appendRows(t, tbl, intRows(10*BlockSize))

	lo, hi := types.Int64Datum(3*BlockSize+5), types.Int64Datum(3*BlockSize+10)
	sc, err := tbl.NewScanner(0, nil, []RangeFilter{{Col: 0, Lo: &lo, Hi: &hi}})
	if err != nil {
		t.Fatal(err)
	}
	buf := vector.NewBatch(sc.Schema(), vector.Size)
	rows := 0
	for sc.Next(buf) {
		rows += buf.Len()
		for i := 0; i < buf.Len(); i++ {
			v := buf.Vecs[0].Int64s()[i]
			// Pruning is conservative: surviving blocks may contain rows
			// outside the range, but the target rows must all be there.
			_ = v
		}
	}
	if sc.PrunedBlocks != 9 {
		t.Errorf("pruned %d blocks, want 9", sc.PrunedBlocks)
	}
	if rows != BlockSize {
		t.Errorf("scanned %d rows, want one block (%d)", rows, BlockSize)
	}
}

func TestZoneMapPruningNeverDropsMatches(t *testing.T) {
	err := quick.Check(func(seed int64, loRaw, hiRaw int16) bool {
		rng := rand.New(rand.NewSource(seed))
		schema := types.NewSchema(types.Column{Name: "x", Type: types.Int32})
		tbl := NewTable("t", schema, Options{Partitions: 1})
		vals := make([]int32, 3000)
		rows := make([][]types.Datum, len(vals))
		for i := range vals {
			vals[i] = int32(rng.Intn(1000))
			rows[i] = []types.Datum{types.Int32Datum(vals[i])}
		}
		appendRows(t, tbl, rows)
		lo64, hi64 := int64(loRaw%1000), int64(hiRaw%1000)
		if lo64 > hi64 {
			lo64, hi64 = hi64, lo64
		}
		lo, hi := types.Int32Datum(int32(lo64)), types.Int32Datum(int32(hi64))
		sc, err := tbl.NewScanner(0, nil, []RangeFilter{{Col: 0, Lo: &lo, Hi: &hi}})
		if err != nil {
			return false
		}
		buf := vector.NewBatch(sc.Schema(), vector.Size)
		got := 0
		for sc.Next(buf) {
			for i := 0; i < buf.Len(); i++ {
				v := int64(buf.Vecs[0].Int32s()[i])
				if v >= lo64 && v <= hi64 {
					got++
				}
			}
		}
		want := 0
		for _, v := range vals {
			if int64(v) >= lo64 && int64(v) <= hi64 {
				want++
			}
		}
		return got == want
	}, &quick.Config{MaxCount: 25})
	if err != nil {
		t.Error(err)
	}
}

func TestCompressionEffective(t *testing.T) {
	// A constant column and an RLE-friendly column must compress far below
	// raw size; this is the property Sec. 4.1 relies on for the sparse
	// weight columns of the model table.
	schema := types.NewSchema(
		types.Column{Name: "zero", Type: types.Float32},
		types.Column{Name: "layer", Type: types.Int32},
	)
	tbl := NewTable("t", schema, Options{Partitions: 1})
	const n = 4 * BlockSize
	rows := make([][]types.Datum, n)
	for i := range rows {
		rows[i] = []types.Datum{types.Float32Datum(0), types.Int32Datum(int32(i / BlockSize))}
	}
	appendRows(t, tbl, rows)
	raw := int64(n) * 8
	if got := tbl.MemSize(); got > raw/20 {
		t.Errorf("compressed size %d, raw %d: compression ineffective", got, raw)
	}
	// And it still round-trips.
	got := scanAll(t, tbl, nil, nil)
	if got.Len() != n {
		t.Fatalf("scanned %d rows, want %d", got.Len(), n)
	}
	for i := 0; i < n; i++ {
		if got.Vecs[1].Int32s()[i] != int32(i/BlockSize) {
			t.Fatalf("row %d: rle value corrupted", i)
		}
	}
}

func TestRoundTripProperty(t *testing.T) {
	err := quick.Check(func(seed int64, nRaw uint16) bool {
		n := int(nRaw)%5000 + 1
		rng := rand.New(rand.NewSource(seed))
		schema := types.NewSchema(
			types.Column{Name: "a", Type: types.Int32},
			types.Column{Name: "b", Type: types.Float64},
		)
		tbl := NewTable("t", schema, Options{Partitions: 3})
		sumA, sumB := int64(0), 0.0
		rows := make([][]types.Datum, n)
		for i := range rows {
			a := int32(rng.Intn(50)) // small domain encourages RLE paths
			b := float64(rng.Intn(10))
			sumA += int64(a)
			sumB += b
			rows[i] = []types.Datum{types.Int32Datum(a), types.Float64Datum(b)}
		}
		appendRows(t, tbl, rows)
		gotA, gotB := int64(0), 0.0
		for p := 0; p < 3; p++ {
			sc, _ := tbl.NewScanner(p, nil, nil)
			buf := vector.NewBatch(sc.Schema(), vector.Size)
			for sc.Next(buf) {
				for i := 0; i < buf.Len(); i++ {
					gotA += int64(buf.Vecs[0].Int32s()[i])
					gotB += buf.Vecs[1].Float64s()[i]
				}
			}
		}
		return gotA == sumA && gotB == sumB && tbl.RowCount() == n
	}, &quick.Config{MaxCount: 30})
	if err != nil {
		t.Error(err)
	}
}

func TestSortedByDeclaration(t *testing.T) {
	tbl := NewTable("t", testSchema(), Options{})
	if tbl.SortedBy() != -1 {
		t.Errorf("fresh table SortedBy = %d, want -1", tbl.SortedBy())
	}
	tbl.SetSortedBy(0)
	if tbl.SortedBy() != 0 {
		t.Errorf("SortedBy = %d, want 0", tbl.SortedBy())
	}
}

// TestAppendSchemaMismatch: a batch whose columns differ from the table's in
// number, type or length is refused and changes nothing.
func TestAppendSchemaMismatch(t *testing.T) {
	tbl := NewTable("t", testSchema(), Options{})
	short := vector.NewBatch(types.NewSchema(types.Column{Name: "id", Type: types.Int64}), 1)
	_ = short.AppendRow(types.Int64Datum(1))
	swapped := testSchema().Col
	wrongType := vector.NewBatch(types.NewSchema(swapped(1), swapped(0), swapped(2), swapped(3)), 1)
	_ = wrongType.AppendRow(types.Int32Datum(1), types.Int64Datum(1), types.Float32Datum(1), types.StringDatum("a"))
	ragged := vector.NewBatch(testSchema(), 2)
	_ = ragged.AppendRow(types.Int64Datum(1), types.Int32Datum(1), types.Float32Datum(1), types.StringDatum("a"))
	ragged.Vecs[3].AppendDatum(types.StringDatum("b"))
	for name, b := range map[string]*vector.Batch{"column count": short, "column type": wrongType, "column length": ragged} {
		if err := tbl.Append(b); err == nil {
			t.Errorf("%s mismatch: expected an error", name)
		}
	}
	if tbl.Version() != 0 || tbl.RowCount() != 0 {
		t.Errorf("refused appends changed the table: version %d, %d rows", tbl.Version(), tbl.RowCount())
	}
}

func TestNullRoundTrip(t *testing.T) {
	schema := types.NewSchema(
		types.Column{Name: "v", Type: types.Float64},
		types.Column{Name: "s", Type: types.String},
	)
	tbl := NewTable("t", schema, Options{Partitions: 2})
	const n = 2*BlockSize + 100
	rows := make([][]types.Datum, n)
	for i := range rows {
		var v, s types.Datum
		if i%3 == 0 {
			v = types.NullDatum(types.Float64)
		} else {
			v = types.Float64Datum(float64(i))
		}
		if i%5 == 0 {
			s = types.NullDatum(types.String)
		} else {
			s = types.StringDatum("x")
		}
		rows[i] = []types.Datum{v, s}
	}
	appendRows(t, tbl, rows)
	got := scanAll(t, tbl, nil, nil)
	if got.Len() != n {
		t.Fatalf("scanned %d rows", got.Len())
	}
	nullV, nullS := 0, 0
	for i := 0; i < got.Len(); i++ {
		if got.Vecs[0].NullAt(i) {
			nullV++
		} else if got.Vecs[0].Float64s()[i] == 0 && i != 0 {
			// non-null zeros only occur at i==0 in this dataset
			t.Fatalf("row %d lost its value", i)
		}
		if got.Vecs[1].NullAt(i) {
			nullS++
		}
	}
	wantV := (n + 2) / 3
	wantS := (n + 4) / 5
	if nullV != wantV || nullS != wantS {
		t.Errorf("null counts: v=%d (want %d), s=%d (want %d)", nullV, wantV, nullS, wantS)
	}
}
