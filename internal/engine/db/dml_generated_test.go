package db_test

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"time"

	"indbml/internal/engine/db"
	"indbml/internal/engine/storage"
	"indbml/internal/engine/types"
	"indbml/internal/engine/vector"
)

// dmlRow is one row of the generated DML test's row-at-a-time reference.
type dmlRow struct {
	id           int64
	a, b         int32
	f            float64
	aNull, bNull bool
	fNull        bool
}

// dmlRef applies statements one row at a time, the way the SQL reads.
type dmlRef struct{ rows []dmlRow }

func (r *dmlRef) update(where func(*dmlRow) bool, set func(old dmlRow, row *dmlRow)) {
	for i := range r.rows {
		if where(&r.rows[i]) {
			set(r.rows[i], &r.rows[i])
		}
	}
}

func (r *dmlRef) delete(where func(*dmlRow) bool) {
	kept := r.rows[:0]
	for _, row := range r.rows {
		if !where(&row) {
			kept = append(kept, row)
		}
	}
	r.rows = kept
}

func idIn(lo, hi int64) func(*dmlRow) bool {
	return func(r *dmlRow) bool { return r.id >= lo && r.id < hi }
}

// TestGeneratedDML runs random UPDATE/DELETE/INSERT sequences against a
// two-partition table big enough for several blocks per partition, and
// checks the whole table and a zone-map-filtered count against the
// reference after every statement. Ranges are centred on vector.Size and
// BlockSize multiples so matches straddle both boundaries.
func TestGeneratedDML(t *testing.T) {
	seed := time.Now().UnixNano()
	t.Logf("seed %d", seed)
	rng := rand.New(rand.NewSource(seed))

	const parts = 2
	n := parts * (storage.BlockSize + 1500)
	schema := types.NewSchema(
		types.Column{Name: "id", Type: types.Int64},
		types.Column{Name: "a", Type: types.Int32},
		types.Column{Name: "b", Type: types.Int32},
		types.Column{Name: "f", Type: types.Float64},
	)
	tbl := storage.NewTable("g", schema, storage.Options{Partitions: parts})
	b := vector.NewBatch(schema, n)
	ref := &dmlRef{}
	for i := 0; i < n; i++ {
		row := dmlRow{id: int64(i), a: int32(i % 50), b: int32(i * 7 % 1000), f: float64(i) / 3, aNull: i%17 == 0}
		ref.rows = append(ref.rows, row)
		a := types.Int32Datum(row.a)
		if row.aNull {
			a = types.NullDatum(types.Int32)
		}
		if err := b.AppendRow(types.Int64Datum(row.id), a, types.Int32Datum(row.b), types.Float64Datum(row.f)); err != nil {
			t.Fatal(err)
		}
	}
	if err := tbl.Append(b); err != nil {
		t.Fatal(err)
	}
	d := db.Open(db.Options{DefaultPartitions: parts})
	d.RegisterTable(tbl)
	nextID := int64(n)

	span := func() (int64, int64) {
		var c int64
		if rng.Intn(2) == 0 {
			c = int64(parts * vector.Size * (1 + rng.Intn(9)))
		} else {
			c = int64(parts * storage.BlockSize * (1 + rng.Intn(1)))
		}
		lo := c - int64(rng.Intn(300))
		return lo, lo + 1 + int64(rng.Intn(3000))
	}
	exec := func(q string) {
		t.Helper()
		if err := d.Exec(q); err != nil {
			t.Fatalf("%s: %v", q, err)
		}
	}
	for step := 0; step < 40; step++ {
		var q string
		switch op := rng.Intn(9); op {
		case 0: // swap: SET expressions see the pre-update row
			lo, hi := span()
			q = fmt.Sprintf("UPDATE g SET a = b, b = a WHERE id >= %d AND id < %d", lo, hi)
			ref.update(idIn(lo, hi), func(old dmlRow, r *dmlRow) {
				r.a, r.aNull, r.b, r.bNull = old.b, old.bNull, old.a, old.aNull
			})
		case 1: // int -> double coercion; a NULL a never matches
			k := int32(rng.Intn(50))
			q = fmt.Sprintf("UPDATE g SET f = a + 1 WHERE a > %d", k)
			ref.update(func(r *dmlRow) bool { return !r.aNull && r.a > k }, func(old dmlRow, r *dmlRow) {
				r.f, r.fNull = float64(old.a+1), false
			})
		case 2: // SET NULL
			m, rem := int64(3+rng.Intn(20)), int64(rng.Intn(3))
			q = fmt.Sprintf("UPDATE g SET a = NULL, f = 7 WHERE id %% %d = %d", m, rem)
			ref.update(func(r *dmlRow) bool { return r.id%m == rem }, func(_ dmlRow, r *dmlRow) {
				r.aNull, r.f, r.fNull = true, 7, false
			})
		case 3: // move values outside the blocks' old zone maps
			lo, hi := span()
			q = fmt.Sprintf("UPDATE g SET b = b + 1000000 WHERE id >= %d AND id < %d", lo, hi)
			ref.update(func(r *dmlRow) bool { return !r.bNull && r.id >= lo && r.id < hi }, func(old dmlRow, r *dmlRow) {
				r.b = old.b + 1000000
			})
		case 4: // NULLs in the predicate
			q = "UPDATE g SET b = a WHERE a < b"
			ref.update(func(r *dmlRow) bool { return !r.aNull && !r.bNull && r.a < r.b }, func(old dmlRow, r *dmlRow) {
				r.b, r.bNull = old.a, old.aNull
			})
		case 5:
			lo, hi := span()
			q = fmt.Sprintf("DELETE FROM g WHERE id >= %d AND id < %d", lo, hi)
			ref.delete(idIn(lo, hi))
		case 6: // empties whole blocks, or a whole partition of the load
			if rng.Intn(2) == 0 {
				q = fmt.Sprintf("DELETE FROM g WHERE id < %d", parts*storage.BlockSize)
				ref.delete(func(r *dmlRow) bool { return r.id < parts*storage.BlockSize })
			} else {
				q = fmt.Sprintf("DELETE FROM g WHERE id %% %d = 1 AND id < %d", parts, n)
				ref.delete(func(r *dmlRow) bool { return r.id%parts == 1 && r.id < int64(n) })
			}
		case 7:
			q = "DELETE FROM g WHERE a IS NULL"
			ref.delete(func(r *dmlRow) bool { return r.aNull })
		case 8: // INSERT after DELETE
			var vals []string
			for i := 0; i < 1+rng.Intn(20); i++ {
				row := dmlRow{id: nextID, a: int32(rng.Intn(60)), b: int32(rng.Intn(2000)), bNull: rng.Intn(4) == 0, f: 0.5, fNull: rng.Intn(3) == 0}
				nextID++
				ref.rows = append(ref.rows, row)
				b, f := fmt.Sprint(row.b), "0.5"
				if row.bNull {
					b = "NULL"
				}
				if row.fNull {
					f = "NULL"
				}
				vals = append(vals, fmt.Sprintf("(%d, %d, %s, %s)", row.id, row.a, b, f))
			}
			q = "INSERT INTO g VALUES " + strings.Join(vals, ", ")
		}
		exec(q)
		checkDMLTable(t, d, ref, q)
	}
}

func checkDMLTable(t *testing.T, d *db.Database, ref *dmlRef, after string) {
	t.Helper()
	res, err := d.Query("SELECT id, a, b, f FROM g ORDER BY id")
	if err != nil {
		t.Fatal(err)
	}
	want := append([]dmlRow(nil), ref.rows...)
	sort.Slice(want, func(i, j int) bool { return want[i].id < want[j].id })
	if res.Len() != len(want) {
		t.Fatalf("after %q: %d rows, want %d", after, res.Len(), len(want))
	}
	for i, w := range want {
		got := dmlRow{
			id: res.Vecs[0].Int64s()[i],
			a:  res.Vecs[1].Int32s()[i], aNull: res.Vecs[1].NullAt(i),
			b: res.Vecs[2].Int32s()[i], bNull: res.Vecs[2].NullAt(i),
			f: res.Vecs[3].Float64s()[i], fNull: res.Vecs[3].NullAt(i),
		}
		if got.aNull {
			got.a = w.a
		}
		if got.bNull {
			got.b = w.b
		}
		if got.fNull {
			got.f = w.f
		}
		if got != w {
			t.Fatalf("after %q: row %d = %+v, want %+v", after, i, got, w)
		}
	}
	// A filtered scan prunes on b's zone maps: values moved past a block's
	// old maximum must still be found.
	var moved int64
	for _, r := range want {
		if !r.bNull && r.b >= 1000000 {
			moved++
		}
	}
	if got := queryInt64(t, d, "SELECT COUNT(*) FROM g WHERE b >= 1000000"); got != moved {
		t.Fatalf("after %q: %d rows with b >= 1000000, want %d", after, got, moved)
	}
}
