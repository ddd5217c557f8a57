package odbc

import (
	"bufio"
	"bytes"
	"testing"

	"indbml/internal/engine/db"
	"indbml/internal/engine/types"
	"indbml/internal/wire"
)

func setup(t *testing.T) *db.Database {
	t.Helper()
	d := db.Open(db.Options{})
	if err := d.Exec("CREATE TABLE t (id BIGINT, v REAL, w DOUBLE, n INTEGER, s VARCHAR, b BOOLEAN)"); err != nil {
		t.Fatal(err)
	}
	if err := d.Exec("INSERT INTO t VALUES (1, 1.5, 2.5, 7, 'hi', TRUE), (2, -0.5, 0.25, -3, 'yo', FALSE)"); err != nil {
		t.Fatal(err)
	}
	return d
}

func TestQueryRoundTrip(t *testing.T) {
	d := setup(t)
	rows, err := Query(d, "SELECT id, v, w, n, s, b FROM t ORDER BY id")
	if err != nil {
		t.Fatal(err)
	}
	cols := rows.Columns()
	if len(cols) != 6 || cols[0].Name != "id" || cols[0].Type != types.Int64 || cols[4].Type != types.String {
		t.Fatalf("schema wrong: %+v", cols)
	}
	r1 := rows.Next()
	if r1 == nil {
		t.Fatal("no first row")
	}
	if r1[0].(int64) != 1 || r1[1].(float32) != 1.5 || r1[2].(float64) != 2.5 ||
		r1[3].(int32) != 7 || r1[4].(string) != "hi" || r1[5].(bool) != true {
		t.Fatalf("row 1 wrong: %v", r1)
	}
	r2 := rows.Next()
	if r2 == nil || r2[0].(int64) != 2 || r2[5].(bool) != false {
		t.Fatalf("row 2 wrong: %v", r2)
	}
	if rows.Next() != nil {
		t.Error("expected end of stream")
	}
	if rows.Err() != nil {
		t.Errorf("unexpected error: %v", rows.Err())
	}
}

// TestServeStreamsTextRows: the baseline pays the text conversion — the
// frame after the schema is MsgRows, not the server's binary MsgBatch.
func TestServeStreamsTextRows(t *testing.T) {
	d := setup(t)
	var buf bytes.Buffer
	if err := (&Server{DB: d}).Serve("SELECT id, v, s FROM t", &buf); err != nil {
		t.Fatal(err)
	}
	r := bufio.NewReader(&buf)
	if _, err := wire.ReadResultSchema(r); err != nil {
		t.Fatal(err)
	}
	if kind, _ := r.ReadByte(); kind != wire.MsgRows {
		t.Fatalf("first frame after the schema is 0x%x, want MsgRows (0x%x)", kind, wire.MsgRows)
	}
}

func TestQueryManyRowsCrossChunks(t *testing.T) {
	d := db.Open(db.Options{DefaultPartitions: 3})
	if err := d.Exec("CREATE TABLE big (id BIGINT, v DOUBLE)"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3000; i += 3 {
		stmt := ""
		for j := 0; j < 3; j++ {
			if j > 0 {
				stmt += ", "
			}
			stmt += "(" + itoa(i+j) + ", 0.5)"
		}
		if err := d.Exec("INSERT INTO big VALUES " + stmt); err != nil {
			t.Fatal(err)
		}
	}
	rows, err := Query(d, "SELECT id, v FROM big")
	if err != nil {
		t.Fatal(err)
	}
	seen := map[int64]bool{}
	for {
		row := rows.Next()
		if row == nil {
			break
		}
		id := row[0].(int64)
		if seen[id] {
			t.Fatalf("duplicate id %d", id)
		}
		seen[id] = true
	}
	if rows.Err() != nil {
		t.Fatal(rows.Err())
	}
	if len(seen) != 3000 {
		t.Errorf("fetched %d rows, want 3000", len(seen))
	}
}

func TestQueryNulls(t *testing.T) {
	d := setup(t)
	rows, err := Query(d, "SELECT SUM(v) AS s FROM t WHERE v > 100")
	if err != nil {
		t.Fatal(err)
	}
	row := rows.Next()
	if row == nil {
		t.Fatal("expected one row")
	}
	if row[0] != nil {
		t.Errorf("SUM over empty set should arrive as nil, got %v", row[0])
	}
}

func TestQueryErrorPropagation(t *testing.T) {
	d := setup(t)
	if _, err := Query(d, "SELECT nope FROM t"); err == nil {
		t.Error("planning error should surface at Query")
	}
	if _, err := Query(d, "SELECT FROM"); err == nil {
		t.Error("parse error should surface at Query")
	}
}

func itoa(i int) string {
	if i == 0 {
		return "0"
	}
	var b []byte
	for i > 0 {
		b = append([]byte{byte('0' + i%10)}, b...)
		i /= 10
	}
	return string(b)
}

func TestSessionSequentialQueries(t *testing.T) {
	d := setup(t)
	s := Connect(d)
	defer s.Close()

	// Several statements over the one connection, in lock step.
	for i := 0; i < 3; i++ {
		rows, err := s.Query("SELECT id, s FROM t ORDER BY id")
		if err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
		n := 0
		for rows.Next() != nil {
			n++
		}
		if rows.Err() != nil || n != 2 {
			t.Fatalf("query %d: rows = %d, err = %v", i, n, rows.Err())
		}
	}

	// An engine error is reported in-band and leaves the session usable.
	if _, err := s.Query("SELECT nope FROM t"); err == nil {
		t.Fatal("planning error should surface at Query")
	}
	rows, err := s.Query("SELECT COUNT(*) AS n FROM t")
	if err != nil {
		t.Fatalf("session dead after in-band error: %v", err)
	}
	row := rows.Next()
	if row == nil || row[0].(int64) != 2 {
		t.Fatalf("count after error = %v", row)
	}
}

func TestSessionAbandonedCursorIsDrained(t *testing.T) {
	d := db.Open(db.Options{DefaultPartitions: 2})
	if err := d.Exec("CREATE TABLE big (id BIGINT)"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2000; i += 4 {
		if err := d.Exec("INSERT INTO big VALUES (" + itoa(i) + "), (" + itoa(i+1) + "), (" + itoa(i+2) + "), (" + itoa(i+3) + ")"); err != nil {
			t.Fatal(err)
		}
	}
	s := Connect(d)
	defer s.Close()

	// Read only one row of a multi-chunk result, then issue the next
	// statement: the session must drain the rest to stay framed.
	rows, err := s.Query("SELECT id FROM big")
	if err != nil {
		t.Fatal(err)
	}
	if rows.Next() == nil {
		t.Fatal("expected a first row")
	}
	rows2, err := s.Query("SELECT COUNT(*) AS n FROM big")
	if err != nil {
		t.Fatal(err)
	}
	row := rows2.Next()
	if row == nil || row[0].(int64) != 2000 {
		t.Fatalf("count after abandoned cursor = %v", row)
	}
}
