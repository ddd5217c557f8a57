// Package wire defines the byte-level protocol of every network surface of
// the engine. There is one frame format per consumer, and nothing selects
// between them:
//
//   - The SQL server (package server) streams results as MsgBatch frames:
//     one frame carries up to vector.Size rows column by column, fixed-width
//     values as raw little-endian bytes, so the server encodes straight from
//     the operator's batch and the client (and the coordinator's
//     RemoteExchange) decodes straight into typed vectors.
//   - The ODBC-style baseline (package odbc) streams MsgRows frames:
//     row-major, every value tagged and formatted as text. An analytical
//     engine must pivot its columns into rows to serve it, and the client
//     pays per-value parsing and dispatch. That cost is the point: the paper
//     identifies it as TF(Python)'s dominant overhead (Sec. 6.2.1), so the
//     text codec survives only where that baseline must pay it.
//
// # Frames
//
// Every message is a one-byte kind followed by a kind-specific payload.
// Lengths and counts are unsigned varints.
//
// Server → client:
//
//	MsgSchema  ncols (len name typ)×ncols
//	MsgBatch   len payload             (server; see below)
//	MsgRows    nrows (len rowbytes)×nrows   (odbc baseline only)
//	MsgDone    query_id               (terminates a result stream; query_id
//	           is the server's flight-recorder ID)
//	MsgTrace   len json                (trailer after MsgDone when the
//	           statement requested tracing: the serialized span tree)
//	MsgOK      len text                (statement acknowledged, no rows)
//	MsgError   code len text           (in-band failure, terminates stream)
//
// Client → server (package server only; the odbc baseline pushes one
// result per connection and needs no requests):
//
//	MsgStmt    deadline_millis origin flags len sql
//
// A MsgStmt with StmtFlagRows set carries the head of an INSERT, INSERT
// INTO <table>, and is followed by the rows to append, framed like a result
// stream: MsgSchema (every column of the table, in order), MsgBatch…,
// MsgDone 0. The payloads of the MsgBatch frames may total at most the
// frame limit. This is how a coordinator writes to its shards: the rows
// arrive bound and typed, with no SQL text to lex, parse or bind again.
//
// A MsgBatch payload is nrows (at most vector.Size), then per column a NULL
// flag byte — 0, or 1 followed by a bitmap of (nrows+7)/8 bytes, bit i set
// when row i is NULL — and the column's values: bool as one byte 0/1,
// int32/float32 as 4 and int64/float64 as 8 little-endian bytes (zero in
// NULL slots), strings as len+bytes (len 0 in NULL slots).
//
// A MsgRows row is the concatenation of its values: TagNull, or TagText
// followed by a little-endian uint32 length and the value formatted as text.
//
// Decoders trust no length: every allocation grows with bytes actually
// received, so a few hostile bytes cannot make a peer allocate gigabytes.
package wire

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"slices"

	"indbml/internal/engine/types"
)

// Message kinds.
const (
	MsgSchema = 0xA1
	MsgRows   = 0xA2
	MsgDone   = 0xA3
	MsgOK     = 0xA4
	MsgTrace  = 0xA5
	MsgBatch  = 0xA6
	MsgError  = 0xAE

	MsgStmt = 0xB1
)

// Statement flags carried on MsgStmt after the origin field.
const (
	// StmtFlagTrace asks the server to execute the statement traced and to
	// append a MsgTrace trailer (the serialized span tree) after the final
	// MsgDone. The trailer is only sent on successful streams: a stream
	// terminated by MsgError carries no trailer.
	StmtFlagTrace uint64 = 1 << 0
	// StmtFlagRows marks a statement whose text is INSERT INTO <table> and
	// which is followed by a row stream (package comment). The receiver
	// reads the whole stream before it admits the statement, so a rejected
	// statement leaves the connection framed.
	StmtFlagRows uint64 = 1 << 1
)

// Error codes carried by MsgError frames, so clients can react to overload
// and cancellation without parsing message text.
const (
	// CodeError is a generic statement failure (parse, plan, execution).
	CodeError byte = 1
	// CodeOverloaded is an admission-control fast-reject: every query slot
	// is busy and the wait queue is full (or the queue wait expired).
	CodeOverloaded byte = 2
	// CodeCanceled reports a query terminated by deadline or cancellation.
	CodeCanceled byte = 3
	// CodeShutdown reports a statement refused because the server is
	// draining.
	CodeShutdown byte = 4
)

// ServerError is a failure reported in-band by the remote side.
type ServerError struct {
	Code byte
	Msg  string
}

// Error implements error.
func (e *ServerError) Error() string { return "wire: server: " + e.Msg }

// maxFrameLen bounds any single length-prefixed payload (statement text,
// error message, row, batch) so a corrupt or hostile peer cannot make the
// reader wait for, or buffer, an arbitrarily large frame.
const maxFrameLen = 64 << 20

// Column describes one result column on the client side.
type Column struct {
	Name string
	Type types.T
}

// WriteUvarint appends an unsigned varint.
func WriteUvarint(w *bufio.Writer, v uint64) {
	var buf [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(buf[:], v)
	w.Write(buf[:n])
}

func readLen(r *bufio.Reader) (int, error) {
	n, err := binary.ReadUvarint(r)
	if err != nil {
		return 0, err
	}
	if n > maxFrameLen {
		return 0, fmt.Errorf("wire: frame length %d exceeds limit", n)
	}
	return int(n), nil
}

// readChunk is how far readN may grow its buffer ahead of the bytes it has
// received while they are still few.
const readChunk = 64 << 10

// readN reads exactly n bytes into buf[:0], reusing its capacity. A longer
// buffer is grown only as bytes arrive — by at most max(received,
// readChunk) at a time — so a declared length the peer never sends costs
// nothing.
func readN(r io.Reader, buf []byte, n int) ([]byte, error) {
	buf = buf[:0]
	for len(buf) < n {
		if len(buf) == cap(buf) {
			buf = slices.Grow(buf, min(n-len(buf), max(len(buf), readChunk)))
		}
		m := len(buf)
		k, err := io.ReadFull(r, buf[m:min(n, cap(buf))])
		buf = buf[:m+k]
		if err != nil {
			if err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return buf, err
		}
	}
	return buf, nil
}

// ReadFrame reads one length-prefixed payload (len, then len bytes) into
// buf, reusing its capacity; the length is capped at the frame limit and the
// buffer grows only with bytes received (readN).
func ReadFrame(r *bufio.Reader, buf []byte) ([]byte, error) {
	n, err := readLen(r)
	if err != nil {
		return nil, err
	}
	return readN(r, buf, n)
}

func writeString(w *bufio.Writer, s string) {
	WriteUvarint(w, uint64(len(s)))
	w.WriteString(s)
}

func readString(r *bufio.Reader) (string, error) {
	buf, err := ReadFrame(r, nil)
	if err != nil {
		return "", err
	}
	return string(buf), nil
}

// WriteSchema writes a MsgSchema frame.
func WriteSchema(w *bufio.Writer, schema *types.Schema) {
	w.WriteByte(MsgSchema)
	WriteUvarint(w, uint64(schema.Len()))
	for i := 0; i < schema.Len(); i++ {
		c := schema.Col(i)
		writeString(w, c.Name)
		w.WriteByte(byte(c.Type))
	}
}

// ReadSchemaBody parses a MsgSchema payload; the kind byte must already be
// consumed. Columns are collected as they arrive rather than allocated from
// the declared count, and every type must be one the engine has.
func ReadSchemaBody(r *bufio.Reader) ([]Column, error) {
	ncols, err := readLen(r)
	if err != nil {
		return nil, err
	}
	var cols []Column
	for i := 0; i < ncols; i++ {
		name, err := readString(r)
		if err != nil {
			return nil, err
		}
		t, err := r.ReadByte()
		if err != nil {
			return nil, err
		}
		if typ := types.T(t); typ < types.Bool || typ > types.String {
			return nil, fmt.Errorf("wire: column %q has unknown type %d", name, t)
		}
		cols = append(cols, Column{Name: name, Type: types.T(t)})
	}
	return cols, nil
}

// ReadResultSchema consumes a result stream's first frame — MsgSchema, or
// MsgError when the statement failed before producing rows — and returns
// the result's columns.
func ReadResultSchema(r *bufio.Reader) ([]Column, error) {
	kind, err := r.ReadByte()
	if err != nil {
		return nil, fmt.Errorf("wire: reading result header: %w", err)
	}
	switch kind {
	case MsgError:
		return nil, ReadErrorBody(r)
	case MsgSchema:
		return ReadSchemaBody(r)
	default:
		return nil, fmt.Errorf("wire: expected schema message, got 0x%x", kind)
	}
}

// WriteError writes a MsgError frame.
func WriteError(w *bufio.Writer, code byte, msg string) {
	w.WriteByte(MsgError)
	w.WriteByte(code)
	writeString(w, msg)
}

// ReadErrorBody parses a MsgError payload; the kind byte must already be
// consumed.
func ReadErrorBody(r *bufio.Reader) error {
	code, err := r.ReadByte()
	if err != nil {
		return err
	}
	msg, err := readString(r)
	if err != nil {
		return err
	}
	return &ServerError{Code: code, Msg: msg}
}

// WriteOK writes a MsgOK frame carrying an informational text payload.
func WriteOK(w *bufio.Writer, text string) {
	w.WriteByte(MsgOK)
	writeString(w, text)
}

// ReadOKBody parses a MsgOK payload; the kind byte must already be
// consumed.
func ReadOKBody(r *bufio.Reader) (string, error) { return readString(r) }

// WriteStmt writes a MsgStmt request frame. deadlineMillis of 0 means the
// client imposes no deadline (the server may still apply its own cap).
// origin is the coordinator-side query ID when this statement is a
// distributed shard fragment (0 for ordinary clients); the receiving server
// stamps it on its flight-recorder entry so fleet observability and
// KILL ORIGIN can correlate fragments with the coordinator query. flags is
// a bitset of StmtFlag* values.
func WriteStmt(w *bufio.Writer, sql string, deadlineMillis, origin, flags uint64) {
	w.WriteByte(MsgStmt)
	WriteUvarint(w, deadlineMillis)
	WriteUvarint(w, origin)
	WriteUvarint(w, flags)
	writeString(w, sql)
}

// ReadStmt reads a full MsgStmt frame including the kind byte.
func ReadStmt(r *bufio.Reader) (sql string, deadlineMillis, origin, flags uint64, err error) {
	kind, err := r.ReadByte()
	if err != nil {
		return "", 0, 0, 0, err
	}
	if kind != MsgStmt {
		return "", 0, 0, 0, fmt.Errorf("wire: expected statement frame, got 0x%x", kind)
	}
	deadlineMillis, err = binary.ReadUvarint(r)
	if err != nil {
		return "", 0, 0, 0, err
	}
	origin, err = binary.ReadUvarint(r)
	if err != nil {
		return "", 0, 0, 0, err
	}
	flags, err = binary.ReadUvarint(r)
	if err != nil {
		return "", 0, 0, 0, err
	}
	sql, err = readString(r)
	return sql, deadlineMillis, origin, flags, err
}

// WriteTrace writes a MsgTrace trailer frame carrying a serialized span
// tree (trace.EncodeSpan output). An empty payload is legal: it means the
// statement ran untraceable (no plan root) but the client asked for a
// trailer, and keeps the framing deterministic.
func WriteTrace(w *bufio.Writer, payload []byte) {
	w.WriteByte(MsgTrace)
	WriteUvarint(w, uint64(len(payload)))
	w.Write(payload)
}

// ReadTraceBody parses a MsgTrace payload; the kind byte must already be
// consumed.
func ReadTraceBody(r *bufio.Reader) ([]byte, error) { return ReadFrame(r, nil) }
