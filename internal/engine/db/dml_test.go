package db_test

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"testing"

	"indbml/internal/engine/db"
)

func setupDMLTable(t *testing.T, parts int) *db.Database {
	t.Helper()
	d := db.Open(db.Options{DefaultPartitions: parts})
	mustExec := func(q string) {
		t.Helper()
		if err := d.Exec(q); err != nil {
			t.Fatalf("%s: %v", q, err)
		}
	}
	mustExec("CREATE TABLE emp (id BIGINT, dept INTEGER, salary DOUBLE, name VARCHAR)")
	mustExec("INSERT INTO emp VALUES (1, 10, 100.0, 'ann'), (2, 10, 200.0, 'bob'), (3, 20, 300.0, 'cal'), (4, 20, 50.5, 'dee')")
	return d
}

func queryInt64(t *testing.T, d *db.Database, q string) int64 {
	t.Helper()
	res, err := d.Query(q)
	if err != nil {
		t.Fatalf("%s: %v", q, err)
	}
	if res.Len() != 1 {
		t.Fatalf("%s: got %d rows, want 1", q, res.Len())
	}
	return res.Vecs[0].Int64s()[0]
}

func TestDelete(t *testing.T) {
	for _, parts := range []int{1, 3} {
		d := setupDMLTable(t, parts)
		if err := d.Exec("DELETE FROM emp WHERE salary > 150"); err != nil {
			t.Fatal(err)
		}
		if n := queryInt64(t, d, "SELECT COUNT(*) FROM emp"); n != 2 {
			t.Errorf("parts=%d: %d rows after DELETE, want 2", parts, n)
		}
		res, err := d.Query("SELECT name FROM emp ORDER BY name")
		if err != nil {
			t.Fatal(err)
		}
		if res.Len() != 2 || res.Vecs[0].Strings()[0] != "ann" || res.Vecs[0].Strings()[1] != "dee" {
			t.Errorf("parts=%d: wrong survivors: %s", parts, res)
		}
		// Unconditional DELETE empties the table.
		if err := d.Exec("DELETE FROM emp"); err != nil {
			t.Fatal(err)
		}
		if n := queryInt64(t, d, "SELECT COUNT(*) FROM emp"); n != 0 {
			t.Errorf("parts=%d: %d rows after DELETE all, want 0", parts, n)
		}
	}
}

func TestUpdate(t *testing.T) {
	for _, parts := range []int{1, 3} {
		d := setupDMLTable(t, parts)
		// SET expressions see pre-update column values.
		if err := d.Exec("UPDATE emp SET salary = salary * 2, dept = 30 WHERE dept = 10"); err != nil {
			t.Fatal(err)
		}
		res, err := d.Query("SELECT name, salary, dept FROM emp WHERE dept = 30 ORDER BY name")
		if err != nil {
			t.Fatal(err)
		}
		if res.Len() != 2 {
			t.Fatalf("parts=%d: %d rows updated, want 2", parts, res.Len())
		}
		if got := res.Vecs[1].Float64s()[0]; got != 200 {
			t.Errorf("parts=%d: ann salary = %v, want 200", parts, got)
		}
		if got := res.Vecs[1].Float64s()[1]; got != 400 {
			t.Errorf("parts=%d: bob salary = %v, want 400", parts, got)
		}
		// Untouched rows keep their values.
		if n := queryInt64(t, d, "SELECT COUNT(*) FROM emp WHERE dept = 20"); n != 2 {
			t.Errorf("parts=%d: dept 20 disturbed", parts)
		}
		// Unconditional UPDATE touches every row.
		if err := d.Exec("UPDATE emp SET salary = 1"); err != nil {
			t.Fatal(err)
		}
		if n := queryInt64(t, d, "SELECT COUNT(*) FROM emp WHERE salary = 1"); n != 4 {
			t.Errorf("parts=%d: unconditional UPDATE missed rows", parts)
		}
	}
}

func TestDMLErrors(t *testing.T) {
	d := setupDMLTable(t, 2)
	for _, q := range []string{
		"DELETE FROM nosuch",
		"DELETE FROM emp WHERE salary",           // non-boolean predicate
		"UPDATE emp SET nosuch = 1",              // unknown column
		"UPDATE emp SET salary = 0 WHERE nosuch", // unknown column in WHERE
	} {
		if err := d.Exec(q); err == nil {
			t.Errorf("%s: expected error", q)
		}
	}
	// Failed statements must not have mutated anything.
	if n := queryInt64(t, d, "SELECT COUNT(*) FROM emp"); n != 4 {
		t.Errorf("table mutated by failing statements: %d rows", n)
	}
}

// TestInsertIsAtomic: an INSERT that fails on any row changes nothing, a
// good one adds exactly its rows under one version bump, and the table's
// row count always equals what a scan sees.
func TestInsertIsAtomic(t *testing.T) {
	d := db.Open(db.Options{DefaultPartitions: 2})
	if err := d.Exec("CREATE TABLE p (id INTEGER, v DOUBLE)"); err != nil {
		t.Fatal(err)
	}
	tbl, err := d.Table("p")
	if err != nil {
		t.Fatal(err)
	}
	check := func(stmt string, wantRows int, wantVersion uint64) {
		t.Helper()
		if n := queryInt64(t, d, "SELECT COUNT(*) FROM p"); n != int64(wantRows) || tbl.RowCount() != wantRows {
			t.Errorf("after %s: COUNT(*) = %d, RowCount() = %d, want %d", stmt, n, tbl.RowCount(), wantRows)
		}
		if v := tbl.Version(); v != wantVersion {
			t.Errorf("after %s: version %d, want %d", stmt, v, wantVersion)
		}
	}
	steps := []struct {
		stmt    string
		fails   bool
		rows    int
		version uint64
	}{
		{"INSERT INTO p VALUES (1, 1.0), (2, 2.0)", false, 2, 1},
		{"INSERT INTO p VALUES (3, 3.0), (4, 4.0), (5)", true, 2, 1},         // bad arity
		{"INSERT INTO p VALUES (6, 6.0), (7, nosuch), (8, 8.0)", true, 2, 1}, // unbindable literal
		{"INSERT INTO p VALUES (10, 10.0)", false, 3, 2},
	}
	for _, s := range steps {
		if err := d.Exec(s.stmt); (err != nil) != s.fails {
			t.Fatalf("%s: error %v, want failure %v", s.stmt, err, s.fails)
		}
		check(s.stmt, s.rows, s.version)
	}
	res, err := d.Query("SELECT id FROM p ORDER BY id")
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Vecs[0].Int32s(); len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 10 {
		t.Errorf("ids %v, want [1 2 10]", got)
	}
}

// TestInsertSpreadsAcrossPartitions: the round-robin cursor lives on the
// table, so single-row INSERTs fill every partition evenly.
func TestInsertSpreadsAcrossPartitions(t *testing.T) {
	d := db.Open(db.Options{DefaultPartitions: 4})
	if err := d.Exec("CREATE TABLE s (id INTEGER)"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if err := d.Exec(fmt.Sprintf("INSERT INTO s VALUES (%d)", i)); err != nil {
			t.Fatal(err)
		}
	}
	tbl, err := d.Table("s")
	if err != nil {
		t.Fatal(err)
	}
	for p := 0; p < tbl.Partitions(); p++ {
		if n := tbl.PartitionRows(p); n != 25 {
			t.Errorf("partition %d holds %d rows, want 25", p, n)
		}
	}
}

// BenchmarkInsertStatement runs the shard-side statement of the dist_rows
// benchmark workload: one 250-row INSERT of (INTEGER, 4 DOUBLE) into a
// four-partition table.
func BenchmarkInsertStatement(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	var sb strings.Builder
	sb.WriteString("INSERT INTO ev VALUES ")
	for i := 0; i < 250; i++ {
		if i > 0 {
			sb.WriteString(", ")
		}
		fmt.Fprintf(&sb, "(%d", i)
		for f := 0; f < 4; f++ {
			sb.WriteString(", " + strconv.FormatFloat(rng.Float64(), 'g', -1, 64))
		}
		sb.WriteByte(')')
	}
	stmt := sb.String()
	d := db.Open(db.Options{DefaultPartitions: 4})
	if err := d.Exec("CREATE TABLE ev (id INTEGER, f1 DOUBLE, f2 DOUBLE, f3 DOUBLE, f4 DOUBLE)"); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := d.Exec(stmt); err != nil {
			b.Fatal(err)
		}
	}
}
