// Package wire defines the byte-level protocol shared by every network
// surface of the engine: the ODBC-style baseline (package odbc) and the
// concurrent SQL server (package server) speak the same row, schema and
// error frames, so there is exactly one row-encoding implementation in the
// repo.
//
// The value encoding is deliberately row-major and tagged, like ODBC's wire
// formats: an analytical engine must pivot its columns into rows to serve
// it, and the client pays per-value dispatch to decode. That cost is the
// point — the paper identifies it as TF(Python)'s dominant overhead
// (Sec. 6.2.1) — and the server reuses the format so baseline and serving
// measurements stay comparable.
//
// # Frames
//
// Every message is a one-byte kind followed by a kind-specific payload.
// Lengths and counts are unsigned varints.
//
// Server → client:
//
//	MsgSchema  ncols (len name typ)×ncols
//	MsgRows    nrows (len rowbytes)×nrows
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
// A row is the concatenation of its values: TagNull, or TagText followed by
// a little-endian uint32 length and the value formatted as text.
package wire

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"strconv"

	"indbml/internal/engine/types"
	"indbml/internal/engine/vector"
)

// Value tags. Non-null values travel as length-prefixed text — the
// representation ODBC drivers commonly use (and the reason fetching large
// numeric results through ODBC costs so much: every float is formatted by
// the server and parsed by the client).
const (
	TagNull = 0
	TagText = 1
)

// Message kinds.
const (
	MsgSchema = 0xA1
	MsgRows   = 0xA2
	MsgDone   = 0xA3
	MsgOK     = 0xA4
	MsgTrace  = 0xA5
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

// ChunkRows is how many rows are framed per MsgRows message; small enough
// to keep a pipe streaming, large enough to amortize framing.
const ChunkRows = 512

// maxFrameLen bounds any single length-prefixed payload (statement text,
// error message, row) so a corrupt or hostile peer cannot force an
// arbitrarily large allocation.
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

func writeString(w *bufio.Writer, s string) {
	WriteUvarint(w, uint64(len(s)))
	w.WriteString(s)
}

func readString(r *bufio.Reader) (string, error) {
	n, err := readLen(r)
	if err != nil {
		return "", err
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(r, buf); err != nil {
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
// consumed.
func ReadSchemaBody(r *bufio.Reader) ([]Column, error) {
	ncols, err := readLen(r)
	if err != nil {
		return nil, err
	}
	cols := make([]Column, ncols)
	for i := range cols {
		name, err := readString(r)
		if err != nil {
			return nil, err
		}
		t, err := r.ReadByte()
		if err != nil {
			return nil, err
		}
		cols[i] = Column{Name: name, Type: types.T(t)}
	}
	return cols, nil
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
func ReadTraceBody(r *bufio.Reader) ([]byte, error) {
	n, err := readLen(r)
	if err != nil {
		return nil, err
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(r, buf); err != nil {
		return nil, err
	}
	return buf, nil
}

// EncodeRow pivots one row out of the columnar batch, formatting every
// value as text (the server-side half of the ODBC conversion cost).
func EncodeRow(dst []byte, b *vector.Batch, r int) []byte {
	var scratch [32]byte
	for _, v := range b.Vecs {
		if v.NullAt(r) {
			dst = append(dst, TagNull)
			continue
		}
		dst = append(dst, TagText)
		var text []byte
		switch v.Type() {
		case types.Bool:
			if v.Bools()[r] {
				text = append(scratch[:0], "true"...)
			} else {
				text = append(scratch[:0], "false"...)
			}
		case types.Int32:
			text = strconv.AppendInt(scratch[:0], int64(v.Int32s()[r]), 10)
		case types.Int64:
			text = strconv.AppendInt(scratch[:0], v.Int64s()[r], 10)
		case types.Float32:
			text = strconv.AppendFloat(scratch[:0], float64(v.Float32s()[r]), 'g', -1, 32)
		case types.Float64:
			text = strconv.AppendFloat(scratch[:0], v.Float64s()[r], 'g', -1, 64)
		case types.String:
			text = []byte(v.Strings()[r])
		}
		dst = binary.LittleEndian.AppendUint32(dst, uint32(len(text)))
		dst = append(dst, text...)
	}
	return dst
}

// DecodeRow parses each text value back into a boxed value of the column's
// declared type — the client-side half of the ODBC conversion plus the
// per-object materialization a Python client pays.
func DecodeRow(buf []byte, cols []Column) ([]any, error) {
	row := make([]any, 0, len(cols))
	for len(row) < len(cols) {
		if len(buf) == 0 {
			return nil, fmt.Errorf("wire: truncated row")
		}
		tag := buf[0]
		buf = buf[1:]
		if tag == TagNull {
			row = append(row, nil)
			continue
		}
		if tag != TagText {
			return nil, fmt.Errorf("wire: unknown value tag %d", tag)
		}
		if len(buf) < 4 {
			return nil, fmt.Errorf("wire: truncated value length")
		}
		n := int(binary.LittleEndian.Uint32(buf))
		buf = buf[4:]
		if len(buf) < n {
			return nil, fmt.Errorf("wire: truncated value payload")
		}
		text := string(buf[:n])
		buf = buf[n:]
		v, err := ParseValue(text, cols[len(row)].Type)
		if err != nil {
			return nil, err
		}
		row = append(row, v)
	}
	return row, nil
}

// ParseValue converts one text-encoded value into a boxed value of type t.
func ParseValue(text string, t types.T) (any, error) {
	switch t {
	case types.Bool:
		return text == "true", nil
	case types.Int32:
		v, err := strconv.ParseInt(text, 10, 32)
		if err != nil {
			return nil, fmt.Errorf("wire: parsing %q: %w", text, err)
		}
		return int32(v), nil
	case types.Int64:
		v, err := strconv.ParseInt(text, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("wire: parsing %q: %w", text, err)
		}
		return v, nil
	case types.Float32:
		v, err := strconv.ParseFloat(text, 32)
		if err != nil {
			return nil, fmt.Errorf("wire: parsing %q: %w", text, err)
		}
		return float32(v), nil
	case types.Float64:
		v, err := strconv.ParseFloat(text, 64)
		if err != nil {
			return nil, fmt.Errorf("wire: parsing %q: %w", text, err)
		}
		return v, nil
	default:
		return text, nil
	}
}
