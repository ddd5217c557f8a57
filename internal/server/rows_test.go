package server

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"net"
	"syscall"
	"testing"
	"time"

	"indbml/internal/engine/types"
	"indbml/internal/engine/vector"
	"indbml/internal/server/client"
	"indbml/internal/wire"
)

// rowBatch builds an n-row batch of schema, every value derived from its
// row number.
func rowBatch(t *testing.T, schema *types.Schema, n int) *vector.Batch {
	t.Helper()
	b := vector.NewBatch(schema, n)
	for r := range n {
		row := make([]types.Datum, schema.Len())
		for c := range row {
			switch schema.Col(c).Type {
			case types.Int32:
				row[c] = types.Int32Datum(int32(r))
			case types.Float32:
				row[c] = types.Float32Datum(float32(r) / 2)
			default:
				row[c] = types.Float64Datum(float64(r) / 2)
			}
		}
		if err := b.AppendRow(row...); err != nil {
			t.Fatal(err)
		}
	}
	return b
}

// rowStatement encodes a StmtFlagRows statement and its row stream.
func rowStatement(t *testing.T, text string, b *vector.Batch) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := bufio.NewWriter(&buf)
	wire.WriteStmt(w, text, 0, 0, wire.StmtFlagRows)
	if _, err := wire.WriteRows(w, b, nil); err != nil {
		t.Fatal(err)
	}
	w.Flush()
	return buf.Bytes()
}

// TestHostileRowStreams sends the server row streams no coordinator sends:
// a schema that differs from the table's in column count, type or name, a
// missing table, a statement that is not a bare INSERT INTO head, a stream
// cut mid-frame and one that declares a frame past the stream's size
// bound. None may apply a row or bump the table's version; each must end
// in an error frame on a connection that still serves statements, or in a
// closed connection; and another session must be served throughout. A
// well-formed stream then applies all its rows under one version bump and
// is flight-recorded as an insert.
func TestHostileRowStreams(t *testing.T) {
	d := newTestDB(t, 100, 4)
	s := startServer(t, d, Config{QuerySlots: 2, QueueDepth: 4, IdleTimeout: time.Minute})
	if err := d.Exec("CREATE TABLE target (id INTEGER, v DOUBLE)"); err != nil {
		t.Fatal(err)
	}
	tbl, err := d.Table("target")
	if err != nil {
		t.Fatal(err)
	}
	other := dial(t, s)
	good := rowBatch(t, tbl.Schema, 3)
	full := rowStatement(t, "INSERT INTO target", good)

	// A stream whose second frame declares a payload that would take the
	// stream past its 64 MiB bound: the server must refuse it unread.
	var over bytes.Buffer
	w := bufio.NewWriter(&over)
	wire.WriteStmt(w, "INSERT INTO target", 0, 0, wire.StmtFlagRows)
	wire.WriteSchema(w, tbl.Schema)
	w.Flush()
	frame := full[len(over.Bytes()):] // the first MsgBatch frame, then MsgDone
	over.Write(frame[:len(frame)-2])
	over.WriteByte(wire.MsgBatch)
	over.Write([]byte{0x80, 0x80, 0x80, 0x20}) // uvarint 64 << 20

	col := func(name string, typ types.T) types.Column { return types.Column{Name: name, Type: typ} }
	for _, c := range []struct {
		name   string
		stream []byte
		framed bool // the stream was read whole: the session must go on
		cut    bool // the client closes its side after the bytes
	}{
		{"fewer columns", rowStatement(t, "INSERT INTO target", rowBatch(t, types.NewSchema(col("id", types.Int32)), 3)), true, false},
		{"more columns", rowStatement(t, "INSERT INTO target", rowBatch(t, types.NewSchema(col("id", types.Int32), col("v", types.Float64), col("w", types.Float64)), 3)), true, false},
		{"column type", rowStatement(t, "INSERT INTO target", rowBatch(t, types.NewSchema(col("id", types.Int32), col("v", types.Float32)), 3)), true, false},
		{"column name", rowStatement(t, "INSERT INTO target", rowBatch(t, types.NewSchema(col("id", types.Int32), col("w", types.Float64)), 3)), true, false},
		{"missing table", rowStatement(t, "INSERT INTO nowhere", good), true, false},
		{"not a bare INSERT INTO", rowStatement(t, "INSERT INTO target VALUES (1, 2)", good), true, false},
		{"cut mid-frame", full[:len(full)-6], false, true},
		{"over the size bound", over.Bytes(), false, false},
	} {
		before := tbl.Version()
		conn, err := net.Dial("tcp", s.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		conn.SetDeadline(time.Now().Add(10 * time.Second))
		if _, err := conn.Write(c.stream); err != nil {
			t.Fatal(err)
		}
		if c.cut {
			conn.(*net.TCPConn).CloseWrite()
		}
		br := bufio.NewReader(conn)
		kind, err := br.ReadByte()
		switch {
		case err != nil && (c.framed || !errors.Is(err, io.EOF)):
			// A timeout here means the server waited on bytes it should
			// have refused unread.
			t.Errorf("%s: %v, want an error frame", c.name, err)
		case err != nil:
		case kind != wire.MsgError:
			t.Errorf("%s: reply 0x%x, want an error frame", c.name, kind)
		default:
			err := wire.ReadErrorBody(br)
			t.Logf("%s: %v", c.name, err)
			bw := bufio.NewWriter(conn)
			wire.WriteStmt(bw, "STATUS", 0, 0, 0)
			bw.Flush()
			kind, err := br.ReadByte()
			switch {
			case c.framed && (err != nil || kind != wire.MsgOK):
				t.Errorf("%s: STATUS after the error: kind 0x%x, %v; want it served", c.name, kind, err)
			// The server closed the session after its error frame, so the
			// STATUS written into it ends in EOF or, when the write reached
			// the closed socket first, in a reset: both mean it is over.
			case !c.framed && !errors.Is(err, io.EOF) && !errors.Is(err, syscall.ECONNRESET):
				t.Errorf("%s: the stream was unframed but the session went on (kind 0x%x, %v)", c.name, kind, err)
			}
		}
		conn.Close()
		if got := tbl.Version(); got != before || tbl.RowCount() != 0 {
			t.Errorf("%s: table at version %d with %d rows, want version %d and none", c.name, got, tbl.RowCount(), before)
		}
		rows, err := other.Query("SELECT COUNT(*) AS n FROM iris")
		if err != nil {
			t.Fatalf("%s: another session: %v", c.name, err)
		}
		if err := rows.Drain(); err != nil {
			t.Fatalf("%s: another session: %v", c.name, err)
		}
	}

	before := tbl.Version()
	if err := other.InsertBatch("target", good); err != nil {
		t.Fatal(err)
	}
	if got := tbl.Version(); got != before+1 || tbl.RowCount() != 3 {
		t.Errorf("a well-formed stream left version %d with %d rows, want version %d with 3", got, tbl.RowCount(), before+1)
	}
	b, err := d.Query("SELECT COUNT(*) AS n FROM system.queries WHERE kind = 'insert' AND sql = 'INSERT INTO target' AND error = ''")
	if err != nil {
		t.Fatal(err)
	}
	if n := b.Vecs[0].AsInt64(0); n != 1 {
		t.Errorf("system.queries holds %d successful inserts into target, want 1", n)
	}
}

// TestRowStreamRejectedByAdmission: with every query slot held, a row
// stream is read whole, then fast-rejected with nothing applied, and its
// session stays framed.
func TestRowStreamRejectedByAdmission(t *testing.T) {
	d := newTestDB(t, 300000, 8)
	s := startServer(t, d, Config{QuerySlots: 1, QueueDepth: 0})
	if err := d.Exec("CREATE TABLE target (id INTEGER, v DOUBLE)"); err != nil {
		t.Fatal(err)
	}
	tbl, err := d.Table("target")
	if err != nil {
		t.Fatal(err)
	}
	hog := dial(t, s)
	go func() {
		if rows, err := hog.QueryTimeout(slotHog, 5*time.Second); err == nil {
			rows.Drain()
		}
	}()
	waitFor(t, 5*time.Second, func() bool { return s.stats.Running.Value() > 0 })

	before := tbl.Version()
	c := dial(t, s)
	err = c.InsertBatch("target", rowBatch(t, tbl.Schema, 500))
	if !client.IsOverloaded(err) {
		t.Fatalf("row stream with every slot held: got %v, want an overload rejection", err)
	}
	if got := tbl.Version(); got != before || tbl.RowCount() != 0 {
		t.Errorf("rejected stream left version %d with %d rows, want version %d and none", got, tbl.RowCount(), before)
	}
	if _, err := c.Status(); err != nil {
		t.Errorf("session after the rejection: %v", err)
	}
	if _, err := dial(t, s).Status(); err != nil {
		t.Errorf("another session: %v", err)
	}
}
