package wire

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"runtime"
	"testing"

	"indbml/internal/engine/types"
	"indbml/internal/engine/vector"
)

// sampleBatch is n rows of testSchema with NULLs in every column, float
// specials and multi-byte strings.
func sampleBatch(n int) *vector.Batch {
	b := vector.NewBatch(testSchema(), n)
	specials := []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1)}
	strs := []string{"", "héllo", "日本", "x\x00y"}
	for r := 0; r < n; r++ {
		row := []types.Datum{
			types.Int64Datum(int64(r) - math.MaxInt64), types.Int32Datum(int32(r) * -7),
			types.Float32Datum(float32(specials[r%4])), types.Float64Datum(float64(r) / 3),
			types.StringDatum(strs[r%4]), types.BoolDatum(r%3 == 0),
		}
		row[r%len(row)] = types.NullDatum(row[r%len(row)].Type)
		_ = b.AppendRow(row...)
	}
	return b
}

func streamOf(schema *types.Schema, frames ...[]byte) []byte {
	var buf bytes.Buffer
	w := bufio.NewWriter(&buf)
	WriteSchema(w, schema)
	w.Flush()
	for _, f := range frames {
		buf.Write(f)
	}
	return buf.Bytes()
}

func batchFrame(payload []byte) []byte {
	return append(binary.AppendUvarint([]byte{MsgBatch}, uint64(len(payload))), payload...)
}

func errorFrame(code byte, msg string) []byte {
	return append(binary.AppendUvarint([]byte{MsgError, code}, uint64(len(msg))), msg...)
}

var doneFrame = []byte{MsgDone, 0}

func oneCol(t types.T) *types.Schema { return types.NewSchema(types.Column{Name: "c", Type: t}) }

// cursorCase is one hand-built result stream; the malformed ones seed
// FuzzCursor (testdata/fuzz/FuzzCursor holds them under the same names).
type cursorCase struct {
	name    string
	stream  []byte
	rows    int  // rows delivered before the stream ends
	wantErr bool // the stream must end in Err()
}

func cursorCases() []cursorCase {
	valid := appendBatch(nil, sampleBatch(5), 0, 5)
	var cases []cursorCase
	add := func(name string, stream []byte, rows int, wantErr bool) {
		cases = append(cases, cursorCase{name, stream, rows, wantErr})
	}
	add("valid", streamOf(testSchema(), batchFrame(valid), batchFrame(valid), doneFrame), 10, false)
	add("empty_result", streamOf(testSchema(), doneFrame), 0, false)
	add("schema_bomb", binary.AppendUvarint([]byte{MsgSchema}, maxFrameLen), 0, true)
	add("unknown_column_type", []byte{MsgSchema, 1, 1, 'c', 9}, 0, true)
	add("truncated_frame", streamOf(testSchema(), batchFrame(valid)[:len(valid)/2]), 0, true)
	add("missing_terminator", streamOf(testSchema(), batchFrame(valid)), 5, true)
	tooMany := binary.AppendUvarint(nil, vector.Size+1)
	tooMany = append(append(tooMany, 0), make([]byte, 8*(vector.Size+1))...)
	add("rows_over_vector_size", streamOf(oneCol(types.Int64), batchFrame(tooMany), doneFrame), 0, true)
	add("string_past_frame_end", streamOf(oneCol(types.String), batchFrame([]byte{1, 0, 100, 'a', 'b', 'c'}), doneFrame), 0, true)
	add("bad_null_flag", streamOf(oneCol(types.Int64), batchFrame([]byte{1, 2, 0, 0, 0, 0, 0, 0, 0, 0}), doneFrame), 0, true)
	add("bad_bool_byte", streamOf(oneCol(types.Bool), batchFrame([]byte{1, 0, 2}), doneFrame), 0, true)
	add("trailing_bytes", streamOf(testSchema(), batchFrame(append(valid[:len(valid):len(valid)], 0)), doneFrame), 0, true)
	add("error_after_two_batches", streamOf(testSchema(), batchFrame(valid), batchFrame(valid),
		errorFrame(CodeCanceled, "context deadline exceeded")), 10, true)
	return cases
}

// TestCursorStreams drives every hand-built stream through Next: each
// delivers its rows and then ends — cleanly, or in Err() when malformed.
func TestCursorStreams(t *testing.T) {
	for _, tc := range cursorCases() {
		cur, err := ReadResultHeader(bufio.NewReader(bytes.NewReader(tc.stream)))
		rows := 0
		if err == nil {
			for cur.Next() != nil {
				rows++
			}
			err = cur.Err()
			if !cur.Finished() {
				t.Errorf("%s: cursor not finished", tc.name)
			}
		}
		if rows != tc.rows || (err != nil) != tc.wantErr {
			t.Errorf("%s: %d rows, err %v; want %d rows, error %v", tc.name, rows, err, tc.rows, tc.wantErr)
		}
	}
	var se *ServerError
	_, err := readAll(cursorCases()[len(cursorCases())-1].stream)
	if !errors.As(err, &se) || se.Code != CodeCanceled {
		t.Errorf("error after two batches = %v, want a CodeCanceled server error", err)
	}
}

func readAll(stream []byte) (int, error) {
	cur, err := ReadResultHeader(bufio.NewReader(bytes.NewReader(stream)))
	if err != nil {
		return 0, err
	}
	n := 0
	for {
		b, err := cur.NextBatch()
		if b == nil {
			return n, err
		}
		n += b.Len()
	}
}

// TestHostileLengthsAllocateLittle: a declared count or length is not an
// allocation size. A 5-byte schema frame claiming 64 Mi columns used to make
// the client allocate 1.6 GB before reading one; every length-prefixed
// field now grows only with bytes received.
func TestHostileLengthsAllocateLittle(t *testing.T) {
	huge := binary.AppendUvarint(nil, maxFrameLen)
	bombs := map[string][]byte{
		"schema":      append([]byte{MsgSchema}, huge...),
		"column name": append([]byte{MsgSchema, 1}, huge...),
		"error text":  append([]byte{MsgError, CodeError}, huge...),
		"batch frame": streamOf(testSchema(), append([]byte{MsgBatch}, huge...)),
	}
	traced := streamOf(testSchema(), doneFrame, append([]byte{MsgTrace}, huge...))
	for name, stream := range bombs {
		checkAlloc(t, name, func() error {
			_, err := readAll(stream)
			return err
		})
	}
	checkAlloc(t, "trace trailer", func() error {
		cur, err := ReadResultHeader(bufio.NewReader(bytes.NewReader(traced)))
		if err != nil {
			return err
		}
		cur.ExpectTrace()
		return cur.Drain()
	})
}

func checkAlloc(t *testing.T, name string, read func() error) {
	t.Helper()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	err := read()
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Errorf("%s bomb: no error", name)
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 1<<20 {
		t.Errorf("%s bomb: allocated %d bytes", name, alloc)
	}
}

// TestDecodeBatchTruncated: every proper prefix of a frame payload fails.
func TestDecodeBatchTruncated(t *testing.T) {
	payload := appendBatch(nil, sampleBatch(9), 0, 9)
	dst := vector.NewBatch(testSchema(), 0)
	for cut := 0; cut < len(payload); cut++ {
		if err := decodeBatch(payload[:cut], dst); err == nil {
			t.Fatalf("truncation at %d/%d not detected", cut, len(payload))
		}
	}
}

// TestCursorNextBatchAfterNext: NextBatch hands over the rest of a frame
// Next has started on, then whole frames.
func TestCursorNextBatchAfterNext(t *testing.T) {
	frame := batchFrame(appendBatch(nil, sampleBatch(5), 0, 5))
	cur, err := ReadResultHeader(bufio.NewReader(bytes.NewReader(streamOf(testSchema(), frame, frame, doneFrame))))
	if err != nil {
		t.Fatal(err)
	}
	if row := cur.Next(); row == nil || row[1].(int32) != 0 {
		t.Fatalf("first row %v", row)
	}
	var lens []int
	for {
		b, err := cur.NextBatch()
		if err != nil {
			t.Fatal(err)
		}
		if b == nil {
			break
		}
		if len(lens) == 0 && b.Vecs[3].Float64s()[0] != 1.0/3 {
			t.Fatalf("rest of the frame starts at w = %v, want row 1", b.Vecs[3].Float64s()[0])
		}
		lens = append(lens, b.Len())
	}
	if len(lens) != 2 || lens[0] != 4 || lens[1] != 5 {
		t.Fatalf("batch lengths %v, want [4 5]", lens)
	}
}

// TestBatchCodecReusesBuffers: encoding into a reused buffer and decoding
// fixed-width columns into a reused batch allocate nothing.
func TestBatchCodecReusesBuffers(t *testing.T) {
	b := benchBatch()
	buf := appendBatch(nil, b, 0, b.Len())
	dst := vector.NewBatch(b.Schema, 0)
	if err := decodeBatch(buf, dst); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(20, func() { buf = appendBatch(buf[:0], b, 0, b.Len()) }); n != 0 {
		t.Errorf("encode allocates %v times per batch", n)
	}
	if n := testing.AllocsPerRun(20, func() { _ = decodeBatch(buf, dst) }); n != 0 {
		t.Errorf("decode allocates %v times per batch", n)
	}
}

// FuzzCursor feeds arbitrary bytes to the cursor as a result stream: a
// schema frame followed by whatever frames the input holds. It must never
// panic; a stream ends cleanly only at a terminator, and anything else ends
// in Err(); Next and NextBatch read the same rows and agree on the outcome;
// and allocation stays proportional to the input.
func FuzzCursor(f *testing.F) {
	f.Fuzz(func(t *testing.T, stream []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		rowErr, batchErr := compareCursors(t, stream)
		runtime.ReadMemStats(&after)
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 1<<20+1024*uint64(len(stream)) {
			t.Fatalf("%d input bytes allocated %d bytes", len(stream), alloc)
		}
		if (rowErr == nil) != (batchErr == nil) {
			t.Fatalf("Next ended in %v, NextBatch in %v", rowErr, batchErr)
		}
		if rowErr == nil && !bytes.Contains(stream, []byte{MsgDone}) {
			t.Fatal("stream without a terminator ended cleanly")
		}
	})
}

// compareCursors reads stream with two cursors in lockstep, one row by row
// and one batch by batch, and returns how each ended.
func compareCursors(t *testing.T, stream []byte) (rowErr, batchErr error) {
	rowsCur, err := ReadResultHeader(bufio.NewReader(bytes.NewReader(stream)))
	if err != nil {
		return err, err
	}
	batchCur, _ := ReadResultHeader(bufio.NewReader(bytes.NewReader(stream)))
	for {
		b, err := batchCur.NextBatch()
		if b == nil {
			if row := rowsCur.Next(); row != nil {
				t.Fatalf("Next returned a row after NextBatch ended (%v)", err)
			}
			if !rowsCur.Finished() || !batchCur.Finished() {
				t.Fatal("cursor not finished at end of stream")
			}
			return rowsCur.Err(), err
		}
		for r := 0; r < b.Len(); r++ {
			row := rowsCur.Next()
			if row == nil {
				t.Fatalf("Next ended (%v) inside a batch NextBatch decoded", rowsCur.Err())
			}
			for c, v := range b.Vecs {
				if !sameBoxed(row[c], v, r) {
					t.Fatalf("row %d column %d: Next %#v, NextBatch %v", r, c, row[c], v.Datum(r))
				}
			}
		}
	}
}

// sameBoxed reports whether x is value r of v as Next boxes it, floats by
// bit pattern.
func sameBoxed(x any, v *vector.Vector, r int) bool {
	if v.NullAt(r) {
		return x == nil
	}
	switch v.Type() {
	case types.Float32:
		f, ok := x.(float32)
		return ok && math.Float32bits(f) == math.Float32bits(v.Float32s()[r])
	case types.Float64:
		f, ok := x.(float64)
		return ok && math.Float64bits(f) == math.Float64bits(v.Float64s()[r])
	case types.Bool:
		return x == v.Bools()[r]
	case types.Int32:
		return x == v.Int32s()[r]
	case types.Int64:
		return x == v.Int64s()[r]
	default:
		return x == v.Strings()[r]
	}
}

// FuzzBatchRoundTrip builds a batch from the input bytes — column types,
// row count, NULLs and raw value bits (so NaN payloads, ±Inf, −0 and
// invalid UTF-8 all occur) — encodes a row range of it and decodes the
// frame: the decoded batch equals the range, floats bit for bit, and
// re-encodes to the same bytes.
func FuzzBatchRoundTrip(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		src := &byteSource{data: data}
		b, lo, hi := src.batch()
		payload := appendBatch(nil, b, lo, hi)
		dst := vector.NewBatch(b.Schema, 0)
		for pass := 0; pass < 2; pass++ { // the second pass decodes into a used batch
			if err := decodeBatch(payload, dst); err != nil {
				t.Fatal(err)
			}
			if dst.Len() != hi-lo {
				t.Fatalf("decoded %d rows, want %d", dst.Len(), hi-lo)
			}
			for c, v := range dst.Vecs {
				for r := 0; r < dst.Len(); r++ {
					if !sameBoxed(boxOf(b.Vecs[c], lo+r), v, r) {
						t.Fatalf("row %d column %d: decoded %v, want %v", r, c, v.Datum(r), b.Vecs[c].Datum(lo+r))
					}
				}
			}
		}
		if again := appendBatch(nil, dst, 0, dst.Len()); !bytes.Equal(again, payload) {
			t.Fatal("decoded batch re-encodes to different bytes")
		}
	})
}

func boxOf(v *vector.Vector, r int) any {
	if v.NullAt(r) {
		return nil
	}
	switch v.Type() {
	case types.Bool:
		return v.Bools()[r]
	case types.Int32:
		return v.Int32s()[r]
	case types.Int64:
		return v.Int64s()[r]
	case types.Float32:
		return v.Float32s()[r]
	case types.Float64:
		return v.Float64s()[r]
	default:
		return v.Strings()[r]
	}
}

// byteSource reads the fuzz input cyclically (zeros when empty).
type byteSource struct {
	data []byte
	i    int
}

func (s *byteSource) next() byte {
	if len(s.data) == 0 {
		return 0
	}
	b := s.data[s.i%len(s.data)]
	s.i++
	return b
}

func (s *byteSource) uint(nbytes int) uint64 {
	var v uint64
	for k := 0; k < nbytes; k++ {
		v = v<<8 | uint64(s.next())
	}
	return v
}

// batch draws up to 8 columns, up to vector.Size encoded rows [lo, hi)
// after up to 7 leading ones, and a NULL wherever a drawn byte falls below
// a drawn threshold; NULL slots keep their drawn value.
func (s *byteSource) batch() (b *vector.Batch, lo, hi int) {
	all := []types.T{types.Bool, types.Int32, types.Int64, types.Float32, types.Float64, types.String}
	cols := make([]types.Column, 1+s.next()%8)
	for i := range cols {
		cols[i] = types.Column{Name: "c", Type: all[s.next()%6]}
	}
	lo = int(s.next() % 8)
	hi = lo + int(s.uint(2)%(vector.Size+1))
	nullBelow := s.next()
	b = vector.NewBatch(types.NewSchema(cols...), hi)
	for _, v := range b.Vecs {
		v.Resize(hi)
		for r := 0; r < hi; r++ {
			switch v.Type() {
			case types.Bool:
				v.Bools()[r] = s.next()&1 == 1
			case types.Int32:
				v.Int32s()[r] = int32(s.uint(4))
			case types.Int64:
				v.Int64s()[r] = int64(s.uint(8))
			case types.Float32:
				v.Float32s()[r] = math.Float32frombits(uint32(s.uint(4)))
			case types.Float64:
				v.Float64s()[r] = math.Float64frombits(s.uint(8))
			case types.String:
				str := make([]byte, s.next()%16)
				for k := range str {
					str[k] = s.next()
				}
				v.Strings()[r] = string(str)
			}
			if s.next() < nullBelow {
				v.SetNull(r)
			}
		}
	}
	b.SetLen(hi)
	return b, lo, hi
}

// benchBatch is serve_rows' result shape: 1024 (id BIGINT, prediction REAL)
// rows.
func benchBatch() *vector.Batch {
	b := vector.NewBatch(types.NewSchema(
		types.Column{Name: "id", Type: types.Int64},
		types.Column{Name: "prediction", Type: types.Float32},
	), vector.Size)
	for r := 0; r < vector.Size; r++ {
		_ = b.AppendRow(types.Int64Datum(int64(r)), types.Float32Datum(float32(r)/vector.Size))
	}
	return b
}

// BenchmarkWireBatch encodes a 1024-row (int64, float32) batch into a
// reused frame buffer and decodes the frame into a reused batch.
func BenchmarkWireBatch(b *testing.B) {
	batch := benchBatch()
	buf := appendBatch(nil, batch, 0, batch.Len())
	b.Run("encode", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(buf)))
		for i := 0; i < b.N; i++ {
			buf = appendBatch(buf[:0], batch, 0, batch.Len())
		}
	})
	b.Run("decode", func(b *testing.B) {
		dst := vector.NewBatch(batch.Schema, 0)
		b.ReportAllocs()
		b.SetBytes(int64(len(buf)))
		for i := 0; i < b.N; i++ {
			if err := decodeBatch(buf, dst); err != nil {
				b.Fatal(err)
			}
		}
	})
}
