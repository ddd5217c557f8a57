package wire

import (
	"bufio"
	"bytes"
	"errors"
	"math"
	"testing"

	"indbml/internal/engine/exec"
	"indbml/internal/engine/expr"
	"indbml/internal/engine/types"
	"indbml/internal/engine/vector"
)

func testSchema() *types.Schema {
	return types.NewSchema(
		types.Column{Name: "id", Type: types.Int64},
		types.Column{Name: "n", Type: types.Int32},
		types.Column{Name: "v", Type: types.Float32},
		types.Column{Name: "w", Type: types.Float64},
		types.Column{Name: "s", Type: types.String},
		types.Column{Name: "b", Type: types.Bool},
	)
}

func TestRowRoundTrip(t *testing.T) {
	schema := testSchema()
	b := vector.NewBatch(schema, 4)
	if err := b.AppendRow(
		types.Int64Datum(-42), types.Int32Datum(7),
		types.Float32Datum(1.5), types.Float64Datum(math.Pi),
		types.StringDatum("héllo; with \x00 bytes"), types.BoolDatum(true),
	); err != nil {
		t.Fatal(err)
	}
	if err := b.AppendRow(
		types.Int64Datum(0), types.NullDatum(types.Int32),
		types.NullDatum(types.Float32), types.Float64Datum(-0.25),
		types.StringDatum(""), types.BoolDatum(false),
	); err != nil {
		t.Fatal(err)
	}

	cols := make([]Column, schema.Len())
	for i := range cols {
		cols[i] = Column{Name: schema.Col(i).Name, Type: schema.Col(i).Type}
	}

	r0, err := DecodeRow(EncodeRow(nil, b, 0), cols)
	if err != nil {
		t.Fatal(err)
	}
	if r0[0].(int64) != -42 || r0[1].(int32) != 7 || r0[2].(float32) != 1.5 ||
		r0[3].(float64) != math.Pi || r0[4].(string) != "héllo; with \x00 bytes" || r0[5].(bool) != true {
		t.Fatalf("row 0 round trip wrong: %v", r0)
	}
	r1, err := DecodeRow(EncodeRow(nil, b, 1), cols)
	if err != nil {
		t.Fatal(err)
	}
	if r1[0].(int64) != 0 || r1[1] != nil || r1[2] != nil ||
		r1[3].(float64) != -0.25 || r1[4].(string) != "" || r1[5].(bool) != false {
		t.Fatalf("row 1 round trip wrong: %v", r1)
	}
}

func TestDecodeRowTruncated(t *testing.T) {
	schema := testSchema()
	b := vector.NewBatch(schema, 1)
	if err := b.AppendRow(
		types.Int64Datum(1), types.Int32Datum(2), types.Float32Datum(3),
		types.Float64Datum(4), types.StringDatum("five"), types.BoolDatum(true),
	); err != nil {
		t.Fatal(err)
	}
	cols := make([]Column, schema.Len())
	for i := range cols {
		cols[i] = Column{Name: schema.Col(i).Name, Type: schema.Col(i).Type}
	}
	enc := EncodeRow(nil, b, 0)
	for cut := 0; cut < len(enc); cut++ {
		if _, err := DecodeRow(enc[:cut], cols); err == nil {
			t.Fatalf("truncation at %d/%d not detected", cut, len(enc))
		}
	}
}

func TestSchemaFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w := bufio.NewWriter(&buf)
	WriteSchema(w, testSchema())
	w.Flush()

	r := bufio.NewReader(&buf)
	kind, _ := r.ReadByte()
	if kind != MsgSchema {
		t.Fatalf("kind = 0x%x", kind)
	}
	cols, err := ReadSchemaBody(r)
	if err != nil {
		t.Fatal(err)
	}
	if len(cols) != 6 || cols[0].Name != "id" || cols[0].Type != types.Int64 ||
		cols[4].Name != "s" || cols[4].Type != types.String {
		t.Fatalf("schema round trip wrong: %+v", cols)
	}
}

func TestStmtFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w := bufio.NewWriter(&buf)
	WriteStmt(w, "SELECT 1", 1500, 0, StmtFlagTrace)
	WriteStmt(w, "STATUS", 0, 42, 0)
	w.Flush()

	r := bufio.NewReader(&buf)
	sql, millis, origin, flags, err := ReadStmt(r)
	if err != nil || sql != "SELECT 1" || millis != 1500 || origin != 0 || flags != StmtFlagTrace {
		t.Fatalf("stmt 1 = %q/%d/%d/%d/%v", sql, millis, origin, flags, err)
	}
	sql, millis, origin, flags, err = ReadStmt(r)
	if err != nil || sql != "STATUS" || millis != 0 || origin != 42 || flags != 0 {
		t.Fatalf("stmt 2 = %q/%d/%d/%d/%v", sql, millis, origin, flags, err)
	}
}

func TestErrorAndOKFrames(t *testing.T) {
	var buf bytes.Buffer
	w := bufio.NewWriter(&buf)
	WriteError(w, CodeOverloaded, "too busy")
	WriteOK(w, "done")
	w.Flush()

	r := bufio.NewReader(&buf)
	kind, _ := r.ReadByte()
	if kind != MsgError {
		t.Fatalf("kind = 0x%x", kind)
	}
	err := ReadErrorBody(r)
	var se *ServerError
	if !errors.As(err, &se) || se.Code != CodeOverloaded || se.Msg != "too busy" {
		t.Fatalf("error round trip wrong: %v", err)
	}
	kind, _ = r.ReadByte()
	if kind != MsgOK {
		t.Fatalf("kind = 0x%x", kind)
	}
	text, err := ReadOKBody(r)
	if err != nil || text != "done" {
		t.Fatalf("ok round trip wrong: %q/%v", text, err)
	}
}

// writeRowStream emits a complete result stream (schema, one batch frame,
// MsgDone) for the test schema, returning the frame's payload length.
func writeRowStream(t *testing.T, w *bufio.Writer, qid uint64) int {
	t.Helper()
	schema := testSchema()
	b := vector.NewBatch(schema, 1)
	if err := b.AppendRow(
		types.Int64Datum(1), types.Int32Datum(2), types.Float32Datum(3),
		types.Float64Datum(4), types.StringDatum("five"), types.BoolDatum(true),
	); err != nil {
		t.Fatal(err)
	}
	WriteSchema(w, schema)
	enc := appendBatch(nil, b, 0, 1)
	writeBatchFrame(w, enc)
	w.WriteByte(MsgDone)
	WriteUvarint(w, qid)
	return len(enc)
}

// TestCursorTraceTrailer: an armed cursor consumes the MsgTrace trailer
// after MsgDone, exposes its payload, and leaves the reader positioned at
// the next result; batch payload bytes are accounted in BytesRead.
func TestCursorTraceTrailer(t *testing.T) {
	var buf bytes.Buffer
	w := bufio.NewWriter(&buf)
	rowLen := writeRowStream(t, w, 7)
	WriteTrace(w, []byte(`{"op":"Scan t"}`))
	WriteOK(w, "next result") // proves the trailer was fully consumed
	w.Flush()

	r := bufio.NewReader(&buf)
	cur, err := ReadResultHeader(r)
	if err != nil {
		t.Fatal(err)
	}
	cur.ExpectTrace()
	if cur.Next() == nil {
		t.Fatalf("no row: %v", cur.Err())
	}
	if cur.Next() != nil || cur.Err() != nil {
		t.Fatalf("stream did not end cleanly: %v", cur.Err())
	}
	if cur.QueryID() != 7 {
		t.Errorf("query id = %d", cur.QueryID())
	}
	if got := string(cur.Trace()); got != `{"op":"Scan t"}` {
		t.Errorf("trace payload = %q", got)
	}
	if cur.BytesRead() != int64(rowLen) {
		t.Errorf("bytes read = %d, want %d", cur.BytesRead(), rowLen)
	}
	kind, _ := r.ReadByte()
	if kind != MsgOK {
		t.Fatalf("reader desynchronized after trailer: next kind = 0x%x", kind)
	}
}

// TestCursorEmptyTraceTrailer: a traced statement whose server produced no
// span tree ships an empty trailer; the cursor reports nil.
func TestCursorEmptyTraceTrailer(t *testing.T) {
	var buf bytes.Buffer
	w := bufio.NewWriter(&buf)
	writeRowStream(t, w, 0)
	WriteTrace(w, nil)
	w.Flush()

	cur, err := ReadResultHeader(bufio.NewReader(&buf))
	if err != nil {
		t.Fatal(err)
	}
	cur.ExpectTrace()
	if err := cur.Drain(); err != nil {
		t.Fatal(err)
	}
	if cur.Trace() != nil {
		t.Errorf("trace = %q, want nil", cur.Trace())
	}
}

// TestCursorUnarmedIgnoresTrailer: without ExpectTrace the cursor stops at
// MsgDone — the trailer protocol only engages when the statement asked for
// it, so untraced streams never pay the extra read.
func TestCursorUnarmedIgnoresTrailer(t *testing.T) {
	var buf bytes.Buffer
	w := bufio.NewWriter(&buf)
	writeRowStream(t, w, 0)
	w.Flush()

	cur, err := ReadResultHeader(bufio.NewReader(&buf))
	if err != nil {
		t.Fatal(err)
	}
	if err := cur.Drain(); err != nil {
		t.Fatal(err)
	}
	if cur.Trace() != nil {
		t.Error("unarmed cursor surfaced a trace")
	}
}

func TestFrameLengthLimit(t *testing.T) {
	var buf bytes.Buffer
	w := bufio.NewWriter(&buf)
	w.WriteByte(MsgStmt)
	WriteUvarint(w, 0)             // deadline
	WriteUvarint(w, 0)             // origin
	WriteUvarint(w, 0)             // flags
	WriteUvarint(w, maxFrameLen+1) // hostile length, no payload follows
	w.Flush()

	if _, _, _, _, err := ReadStmt(bufio.NewReader(&buf)); err == nil {
		t.Fatal("oversized frame accepted")
	}
}

// TestStreamOperatorCopiesReusedBatches streams an operator that refills one
// output batch on every Next (a hash aggregate with three batches of groups):
// the streamer must have encoded each batch's rows before asking for the
// next, so every group arrives once with its own values.
func TestStreamOperatorCopiesReusedBatches(t *testing.T) {
	const groups = 2*vector.Size + 100
	schema := types.NewSchema(types.Column{Name: "k", Type: types.Int64})
	in := vector.NewBatch(schema, groups)
	for i := 0; i < groups; i++ {
		_ = in.AppendRow(types.Int64Datum(int64(i)))
	}
	k := expr.NewColRef(0, "k", types.Int64)
	agg, err := exec.NewHashAggregate(exec.NewValues(schema, in), []expr.Expr{k}, []string{"k"},
		[]exec.AggSpec{{Func: exec.AggSum, Arg: k, Name: "s"}})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	w := bufio.NewWriter(&buf)
	if n, err := StreamOperator(w, agg); err != nil || n != groups {
		t.Fatalf("streamed %d rows, err %v", n, err)
	}
	w.Flush()
	cur, err := ReadResultHeader(bufio.NewReader(&buf))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < groups; i++ {
		row := cur.Next()
		if row == nil || row[0].(int64) != int64(i) || row[1].(int64) != int64(i) {
			t.Fatalf("row %d = %v (err %v)", i, row, cur.Err())
		}
	}
	if cur.Next() != nil || cur.Err() != nil {
		t.Fatalf("stream did not end cleanly: %v", cur.Err())
	}
}
