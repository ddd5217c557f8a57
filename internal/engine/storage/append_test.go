package storage

import (
	"math/rand"
	"testing"
	"time"

	"indbml/internal/engine/types"
	"indbml/internal/engine/vector"
)

// appendRef is the row-at-a-time reference for TestGeneratedAppend: each
// partition's rows in storage order. Rows are never modified in place, so a
// shallow copy of the partitions is a snapshot.
type appendRef struct {
	parts  [][][]types.Datum // [partition][row][column]
	next   int               // partition of the next appended row
	nextID int64
}

func (r *appendRef) clone() [][][]types.Datum {
	return append([][][]types.Datum(nil), r.parts...)
}

// TestGeneratedAppend appends batches of every interesting size — empty,
// one row, around a vector, around a block, several blocks — over all six
// column types at NULL densities 0, 0.1 and 1 into 1, 3 and 4 partitions,
// interleaved with random UPDATEs and DELETEs. After every statement a full
// scan, and a zone-map-filtered one, must equal the reference in partition
// order. Each Append must write BlockSize-row blocks except a partition's
// last, bump the version once (an empty one not at all), and stay invisible
// to a snapshot taken before it.
func TestGeneratedAppend(t *testing.T) {
	seed := time.Now().UnixNano()
	t.Logf("seed %d", seed)
	rng := rand.New(rand.NewSource(seed))
	schema := types.NewSchema(
		types.Column{Name: "id", Type: types.Int64},
		types.Column{Name: "b", Type: types.Bool},
		types.Column{Name: "i", Type: types.Int32},
		types.Column{Name: "l", Type: types.Int64},
		types.Column{Name: "f", Type: types.Float32},
		types.Column{Name: "d", Type: types.Float64},
		types.Column{Name: "s", Type: types.String},
	)
	sizes := []int{0, 1, vector.Size - 1, vector.Size + 1, BlockSize - 1, BlockSize + 1, 3*BlockSize + 7}
	densities := []float64{0, 0.1, 1}
	appends := 0
	for _, nparts := range []int{1, 3, 4} {
		tbl := NewTable("g", schema, Options{Partitions: nparts})
		ref := &appendRef{parts: make([][][]types.Datum, nparts)}
		for _, si := range rng.Perm(len(sizes)) {
			mutateRandomly(t, rng, tbl, ref)
			checkAgainstRef(t, rng, tbl.Snapshot(), ref.parts)

			n, nullP := sizes[si], densities[appends%len(densities)]
			appends++
			b := genAppendBatch(rng, schema, n, nullP, ref.nextID)
			before, beforeRef, v := tbl.Snapshot(), ref.clone(), tbl.Version()
			if err := tbl.Append(b); err != nil {
				t.Fatal(err)
			}
			for r := 0; r < n; r++ {
				pi := (ref.next + r) % nparts
				ref.parts[pi] = append(ref.parts[pi], b.Row(r))
			}
			ref.next, ref.nextID = (ref.next+n)%nparts, ref.nextID+int64(n)

			wantV := v
			if n > 0 {
				wantV++
			}
			if got := tbl.Version(); got != wantV {
				t.Fatalf("%d partitions: %d-row Append moved the version %d -> %d, want %d", nparts, n, v, got, wantV)
			}
			after := tbl.Snapshot()
			for pi := range after.parts {
				share := len(ref.parts[pi]) - len(beforeRef[pi])
				checkNewBlocks(t, before.parts[pi], after.parts[pi], share)
			}
			checkAgainstRef(t, rng, before, beforeRef)
			checkAgainstRef(t, rng, after, ref.parts)
		}
	}
}

// genAppendBatch draws n rows with ids from firstID on; every other column
// has a random run shape and NULLs with probability nullP.
func genAppendBatch(rng *rand.Rand, schema *types.Schema, n int, nullP float64, firstID int64) *vector.Batch {
	b := vector.NewBatch(schema, n)
	shapes := make([]int, schema.Len())
	for c := range shapes {
		shapes[c] = rng.Intn(3)
	}
	prev := make([]types.Datum, schema.Len())
	row := make([]types.Datum, schema.Len())
	for r := 0; r < n; r++ {
		row[0] = types.Int64Datum(firstID + int64(r))
		for c := 1; c < schema.Len(); c++ {
			typ := schema.Col(c).Type
			prev[c] = genValue(rng, typ, shapes[c], prev[c], r)
			row[c] = prev[c]
			if rng.Float64() < nullP {
				row[c] = types.NullDatum(typ)
			}
		}
		_ = b.AppendRow(row...)
	}
	return b
}

// mutateRandomly runs one UPDATE or DELETE of the rows whose id is k mod m
// against the table and the reference, and checks its version bump.
func mutateRandomly(t *testing.T, rng *rand.Rand, tbl *Table, ref *appendRef) {
	t.Helper()
	m, k := int64(2+rng.Intn(8)), int64(rng.Intn(2))
	hit := func(id int64) bool { return id%m == k }
	col := 1 + rng.Intn(tbl.Schema.Len()-1)
	typ := tbl.Schema.Col(col).Type
	val := vector.New(typ, 1)
	if rng.Intn(4) == 0 {
		val.AppendDatum(types.NullDatum(typ))
	} else {
		val.AppendDatum(genValue(rng, typ, 2, types.Datum{}, 0))
	}
	del := rng.Intn(3) == 0
	match := func(b *vector.Batch) ([]int, []*vector.Vector, error) {
		var hits []int
		vals := vector.New(typ, b.Len())
		for i, id := range b.Vecs[0].Int64s() {
			vals.AppendFrom(val, nil)
			if hit(id) {
				hits = append(hits, i)
			}
		}
		return hits, []*vector.Vector{vals}, nil
	}
	v := tbl.Version()
	var n int
	var err error
	if del {
		n, err = tbl.Delete([]int{0}, nil, match)
	} else {
		n, err = tbl.Update([]int{0}, nil, []int{col}, match)
	}
	if err != nil {
		t.Fatal(err)
	}
	want := 0
	for pi, rows := range ref.parts {
		var kept [][]types.Datum
		for _, row := range rows {
			switch {
			case !hit(row[0].I64):
				kept = append(kept, row)
			case !del:
				row = append([]types.Datum(nil), row...)
				row[col] = val.Datum(0)
				kept = append(kept, row)
				want++
			default:
				want++
			}
		}
		ref.parts[pi] = kept
	}
	if n != want {
		t.Fatalf("delete=%v id%%%d==%d changed %d rows, want %d", del, m, k, n, want)
	}
	if wantV := v + uint64(min(n, 1)); tbl.Version() != wantV {
		t.Fatalf("delete=%v changing %d rows moved the version %d -> %d", del, n, v, tbl.Version())
	}
}

// checkNewBlocks checks the blocks one Append added to a partition: the
// same count in every column, BlockSize rows each except the last, share
// rows in all.
func checkNewBlocks(t *testing.T, before, after [][]*block, share int) {
	t.Helper()
	added := after[0][len(before[0]):]
	for c := range after {
		if len(after[c])-len(before[c]) != len(added) {
			t.Fatalf("column %d gained %d blocks, column 0 %d", c, len(after[c])-len(before[c]), len(added))
		}
	}
	total := 0
	for i, b := range added {
		if b.n == 0 || b.n > BlockSize || i < len(added)-1 && b.n != BlockSize {
			t.Fatalf("an Append of %d rows wrote a %d-row block at %d of %d", share, b.n, i, len(added))
		}
		total += b.n
	}
	if total != share {
		t.Fatalf("an Append wrote %d rows to a partition, want %d", total, share)
	}
}

// checkAgainstRef scans every partition of snap, unfiltered and with a
// random zone-map filter on id, and compares the rows with the reference.
func checkAgainstRef(t *testing.T, rng *rand.Rand, snap *Snapshot, ref [][][]types.Datum) {
	t.Helper()
	for pi, rows := range ref {
		checkScan(t, snap, pi, rows, nil)
		var maxID int64
		for _, row := range rows {
			maxID = max(maxID, row[0].I64)
		}
		a, b := rng.Int63n(maxID+2), rng.Int63n(maxID+2)
		lo, hi := types.Int64Datum(min(a, b)), types.Int64Datum(max(a, b))
		checkScan(t, snap, pi, rows, &RangeFilter{Col: 0, Lo: &lo, Hi: &hi})
	}
}

// checkScan scans partition pi of snap and compares it with rows minus the
// blocks f prunes, which the scanner must count. Every batch but the last
// must be full.
func checkScan(t *testing.T, snap *Snapshot, pi int, rows [][]types.Datum, f *RangeFilter) {
	t.Helper()
	var filters []RangeFilter
	var want [][]types.Datum
	wantPruned, off := 0, 0
	for _, blk := range snap.parts[pi][0] {
		if off+blk.n > len(rows) {
			t.Fatalf("partition %d has more rows than the reference's %d", pi, len(rows))
		}
		in := rows[off : off+blk.n]
		off += blk.n
		if f != nil && !idsOverlap(in, f.Lo.I64, f.Hi.I64) {
			wantPruned++
			continue
		}
		want = append(want, in...)
	}
	if off != len(rows) {
		t.Fatalf("partition %d holds %d rows, reference %d", pi, off, len(rows))
	}
	if f != nil {
		filters = []RangeFilter{*f}
	}
	sc, err := snap.NewScanner(pi, nil, filters)
	if err != nil {
		t.Fatal(err)
	}
	buf := vector.NewBatch(sc.Schema(), vector.Size)
	got, short := 0, false
	for sc.Next(buf) {
		if short {
			t.Fatalf("partition %d: a batch shorter than %d rows was not the last", pi, vector.Size)
		}
		short = buf.Len() != vector.Size
		for r := 0; r < buf.Len(); r++ {
			for c, d := range buf.Row(r) {
				if !sameDatum(d, want[got][c]) {
					t.Fatalf("partition %d row %d col %d = %v, want %v (filter %v)", pi, got, c, d, want[got][c], f != nil)
				}
			}
			got++
		}
	}
	if got != len(want) || sc.PrunedBlocks != wantPruned {
		t.Fatalf("partition %d: scanned %d rows and pruned %d blocks, want %d and %d", pi, got, sc.PrunedBlocks, len(want), wantPruned)
	}
}

// idsOverlap reports whether the ids of rows span any of [lo, hi].
func idsOverlap(rows [][]types.Datum, lo, hi int64) bool {
	mn, mx := rows[0][0].I64, rows[0][0].I64
	for _, row := range rows {
		mn, mx = min(mn, row[0].I64), max(mx, row[0].I64)
	}
	return mx >= lo && mn <= hi
}
