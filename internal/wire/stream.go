package wire

import (
	"bufio"

	"indbml/internal/engine/exec"
)

// IsCancellation reports whether an execution error stems from context
// cancellation or deadline expiry (re-exported from exec so protocol users
// need not import the operator package).
func IsCancellation(err error) bool { return exec.IsCancellation(err) }

// classify maps an execution error to a frame error code. Context
// cancellation and deadline expiry surface as CodeCanceled so clients (and
// the server's accounting) can tell an aborted query from a failed one.
func classify(err error) byte {
	if exec.IsCancellation(err) {
		return CodeCanceled
	}
	return CodeError
}

// StreamOperator runs the full open/next/close protocol on op and streams
// schema, row chunks and the terminator to w. Failures — including
// cancellation — are reported in-band as MsgError frames so the client
// always sees a terminated stream; the error is also returned for
// server-side accounting. Error frames are flushed eagerly, but on success
// the final chunk and Done terminator are left buffered for the caller to
// flush — that lets the caller order post-statement bookkeeping (the
// slow-query log line, session counters) before the client can observe
// completion.
//
// Results are written batch by batch as the operator produces them: nothing
// is materialized server-side, so a canceled or slow client stops pulling
// work from the engine as soon as the transport backpressures.
func StreamOperator(w *bufio.Writer, op exec.Operator) (rows int64, err error) {
	if err := op.Open(); err != nil {
		WriteError(w, classify(err), err.Error())
		return 0, flushBoth(w, err)
	}
	defer op.Close()

	WriteSchema(w, op.Schema())
	// Rows are framed into count-prefixed chunks: [MsgRows][n]([len][row])×n.
	chunk := make([][]byte, 0, ChunkRows)
	flushChunk := func() {
		if len(chunk) == 0 {
			return
		}
		w.WriteByte(MsgRows)
		WriteUvarint(w, uint64(len(chunk)))
		for _, row := range chunk {
			WriteUvarint(w, uint64(len(row)))
			w.Write(row)
		}
		chunk = chunk[:0]
	}
	for {
		b, err := op.Next()
		if err != nil {
			flushChunk()
			WriteError(w, classify(err), err.Error())
			return rows, flushBoth(w, err)
		}
		if b == nil {
			break
		}
		for r := 0; r < b.Len(); r++ {
			chunk = append(chunk, EncodeRow(nil, b, r))
			rows++
			if len(chunk) >= ChunkRows {
				flushChunk()
				if err := w.Flush(); err != nil {
					// The transport is gone (client hung up mid-stream);
					// stop pulling batches from the engine.
					return rows, err
				}
			}
		}
	}
	flushChunk()
	w.WriteByte(MsgDone)
	// The terminator carries the flight-recorder query ID (0 when the
	// operator was built outside the recorder), so the client can
	// correlate its result set with system.queries.
	var qid uint64
	if q, ok := op.(interface{ QueryID() uint64 }); ok {
		qid = q.QueryID()
	}
	WriteUvarint(w, qid)
	return rows, nil
}

// flushBoth flushes w but reports the original error, which takes
// precedence over any transport failure.
func flushBoth(w *bufio.Writer, orig error) error {
	w.Flush()
	return orig
}
