package wire

import (
	"bufio"

	"indbml/internal/engine/exec"
	"indbml/internal/engine/vector"
)

// IsCancellation reports whether an execution error stems from context
// cancellation or deadline expiry (re-exported from exec so protocol users
// need not import the operator package).
func IsCancellation(err error) bool { return exec.IsCancellation(err) }

// FailStream reports an execution failure in-band as a MsgError frame and
// flushes it, so the client always sees a terminated stream. Context
// cancellation and deadline expiry surface as CodeCanceled so clients (and
// the server's accounting) can tell an aborted query from a failed one. It
// returns err, which takes precedence over any transport failure.
func FailStream(w *bufio.Writer, err error) error {
	code := CodeError
	if exec.IsCancellation(err) {
		code = CodeCanceled
	}
	WriteError(w, code, err.Error())
	w.Flush()
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
// is written, but on success the Done terminator is left buffered for the
// caller to flush — that lets the caller order post-statement bookkeeping
// (the slow-query log line, session counters) before the client can observe
// completion.
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
