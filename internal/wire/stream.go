package wire

import (
	"bufio"
	"fmt"

	"indbml/internal/engine/exec"
	"indbml/internal/engine/vector"
)

var errRowsTooLarge = fmt.Errorf("wire: row stream exceeds %d bytes", maxFrameLen)

// IsCancellation reports whether an execution error stems from context
// cancellation or deadline expiry (re-exported from exec so protocol users
// need not import the operator package).
func IsCancellation(err error) bool { return exec.IsCancellation(err) }

// FailStream reports an execution failure in-band as a MsgError frame, so
// the client always sees a terminated stream. The frame is left buffered,
// like a stream's Done terminator: the caller flushes it once its own
// bookkeeping for the statement is done. Context cancellation and deadline
// expiry surface as CodeCanceled so clients (and the server's accounting)
// can tell an aborted query from a failed one. It returns err.
func FailStream(w *bufio.Writer, err error) error {
	code := CodeError
	if exec.IsCancellation(err) {
		code = CodeCanceled
	}
	WriteError(w, code, err.Error())
	return err
}

// WriteDone writes the MsgDone terminator. It carries the flight-recorder
// query ID (0 when the operator was built outside the recorder), so the
// client can correlate its result set with system.queries.
func WriteDone(w *bufio.Writer, op exec.Operator) {
	var qid uint64
	if q, ok := op.(interface{ QueryID() uint64 }); ok {
		qid = q.QueryID()
	}
	w.WriteByte(MsgDone)
	WriteUvarint(w, qid)
}

// StreamOperator runs the full open/next/close protocol on op and streams
// schema, MsgBatch frames and the terminator to w. Failures — including
// cancellation — are reported in-band (FailStream); the error is also
// returned for server-side accounting. Every batch frame is flushed as it
// is written, but the stream's last frame, Done or the error, is left
// buffered for the caller to flush — that lets the caller order
// post-statement bookkeeping (the slow-query log line, the outcome count,
// the query slot's release) before the client can observe completion.
//
// Each batch is encoded straight from the operator's buffers into one
// reused frame buffer before the next Next (batch ownership, exec.Operator),
// so nothing is materialized server-side and a canceled or slow client
// stops pulling work from the engine as soon as the transport
// backpressures.
func StreamOperator(w *bufio.Writer, op exec.Operator) (rows int64, err error) {
	if err := op.Open(); err != nil {
		return 0, FailStream(w, err)
	}
	defer op.Close()

	WriteSchema(w, op.Schema())
	var frame []byte
	for {
		b, err := op.Next()
		if err != nil {
			return rows, FailStream(w, err)
		}
		if b == nil {
			break
		}
		for lo := 0; lo < b.Len(); lo += vector.Size {
			hi := min(lo+vector.Size, b.Len())
			frame = appendBatch(frame[:0], b, lo, hi)
			writeBatchFrame(w, frame)
			rows += int64(hi - lo)
			if err := w.Flush(); err != nil {
				// The transport is gone (client hung up mid-stream); stop
				// pulling batches from the engine.
				return rows, err
			}
		}
	}
	WriteDone(w, op)
	return rows, nil
}

func writeBatchFrame(w *bufio.Writer, payload []byte) {
	w.WriteByte(MsgBatch)
	WriteUvarint(w, uint64(len(payload)))
	w.Write(payload)
}

// WriteRows writes b as the row stream that follows a MsgStmt carrying
// StmtFlagRows: MsgSchema, one MsgBatch frame per vector.Size rows, MsgDone.
// frame is a reusable encode buffer, returned grown. When the frames would
// pass the stream limit it stops with an error, having written part of the
// stream: the connection is then unframed and must be closed.
func WriteRows(w *bufio.Writer, b *vector.Batch, frame []byte) ([]byte, error) {
	WriteSchema(w, b.Schema)
	total := 0
	for lo := 0; lo < b.Len(); lo += vector.Size {
		frame = appendBatch(frame[:0], b, lo, min(lo+vector.Size, b.Len()))
		if total += len(frame); total > maxFrameLen {
			return frame, errRowsTooLarge
		}
		writeBatchFrame(w, frame)
	}
	w.WriteByte(MsgDone)
	WriteUvarint(w, 0)
	return frame, nil
}

// ReadRows reads the row stream that follows a MsgStmt carrying
// StmtFlagRows through a Cursor bounded to the stream limit, and returns its
// rows as one batch. A frame that would pass the limit is refused before it
// is read. After an error the stream is not consumed to its end, so the
// connection is unframed.
func ReadRows(r *bufio.Reader) (*vector.Batch, error) {
	kind, err := r.ReadByte()
	if err != nil {
		return nil, err
	}
	if kind != MsgSchema {
		return nil, fmt.Errorf("wire: expected a row stream schema, got 0x%x", kind)
	}
	cols, err := ReadSchemaBody(r)
	if err != nil {
		return nil, err
	}
	c := NewCursor(r, cols)
	c.limit = maxFrameLen
	rows := vector.NewBatch(c.schema, 0)
	for {
		b, err := c.NextBatch()
		switch {
		case b == nil && err != nil:
			return nil, err
		case b == nil:
			return rows, nil
		case rows.Len() == 0:
			rows = b
		default:
			rows.AppendBatch(b)
		}
	}
}
