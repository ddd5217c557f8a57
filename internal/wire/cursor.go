package wire

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
)

// Cursor is the client-side reader of one result stream: it consumes
// MsgRows chunks up to the MsgDone (or MsgError) terminator and decodes
// each row into boxed `any` values — the equivalent of Python objects
// materialized per fetched value.
//
// The cursor reads exactly one result stream and leaves the underlying
// reader positioned after the terminator, so several results can follow
// each other on one connection.
type Cursor struct {
	r       *bufio.Reader
	cols    []Column
	err     error
	done    bool
	pending uint64 // rows left in the current chunk
	rowBuf  []byte
	queryID uint64 // flight-recorder ID from the MsgDone terminator

	expectTrace bool   // statement was sent with StmtFlagTrace
	trace       []byte // MsgTrace trailer payload (nil until MsgDone)
	bytesRead   int64  // total row payload bytes decoded
}

// NewCursor builds a cursor over a stream whose MsgSchema frame has
// already been consumed into cols.
func NewCursor(r *bufio.Reader, cols []Column) *Cursor { return &Cursor{r: r, cols: cols} }

// ReadResultHeader consumes a result stream's first frame — MsgSchema or
// MsgError — and returns a cursor over the rows that follow.
func ReadResultHeader(r *bufio.Reader) (*Cursor, error) {
	kind, err := r.ReadByte()
	if err != nil {
		return nil, fmt.Errorf("wire: reading result header: %w", err)
	}
	switch kind {
	case MsgError:
		return nil, ReadErrorBody(r)
	case MsgSchema:
	default:
		return nil, fmt.Errorf("wire: expected schema message, got 0x%x", kind)
	}
	cols, err := ReadSchemaBody(r)
	if err != nil {
		return nil, err
	}
	return &Cursor{r: r, cols: cols}, nil
}

// Columns returns the result schema.
func (c *Cursor) Columns() []Column { return c.cols }

// Err returns the terminal error, if any.
func (c *Cursor) Err() error { return c.err }

// Finished reports whether the stream terminator has been consumed (whether
// cleanly or by error); once true, the underlying reader is free for the
// next result.
func (c *Cursor) Finished() bool { return c.done }

// QueryID returns the server-side flight-recorder ID carried by the
// MsgDone terminator (0 until the stream finishes cleanly). Use it to look
// the statement up in system.queries / system.query_operators.
func (c *Cursor) QueryID() uint64 { return c.queryID }

// ExpectTrace arms the cursor to consume a MsgTrace trailer after MsgDone.
// Call it when the statement was sent with StmtFlagTrace; without it the
// trailer frame would desynchronize the connection.
func (c *Cursor) ExpectTrace() { c.expectTrace = true }

// Trace returns the MsgTrace trailer payload (trace.EncodeSpan output),
// nil until the stream finished cleanly or when no trailer was requested.
func (c *Cursor) Trace() []byte { return c.trace }

// BytesRead returns the total row payload bytes consumed so far — the
// wire-transfer cost of the result, used by the coordinator to attribute
// bytes-in per shard.
func (c *Cursor) BytesRead() int64 { return c.bytesRead }

// Next returns the next row as boxed values, or nil at end of stream.
func (c *Cursor) Next() []any {
	if c.done || c.err != nil {
		return nil
	}
	for {
		if c.pending == 0 {
			kind, err := c.r.ReadByte()
			if err != nil {
				c.fail(err)
				return nil
			}
			switch kind {
			case MsgRows:
				n, err := binary.ReadUvarint(c.r)
				if err != nil {
					c.fail(err)
					return nil
				}
				c.pending = n
			case MsgDone:
				qid, err := binary.ReadUvarint(c.r)
				if err != nil {
					c.fail(err)
					return nil
				}
				c.queryID = qid
				if c.expectTrace {
					if err := c.readTrailer(); err != nil {
						c.fail(err)
						return nil
					}
				}
				c.done = true
				return nil
			case MsgError:
				c.fail(ReadErrorBody(c.r))
				return nil
			default:
				c.fail(fmt.Errorf("wire: unexpected message kind 0x%x", kind))
				return nil
			}
			continue
		}
		c.pending--
		n, err := readLen(c.r)
		if err != nil {
			c.fail(err)
			return nil
		}
		c.bytesRead += int64(n)
		if cap(c.rowBuf) < n {
			c.rowBuf = make([]byte, n)
		}
		buf := c.rowBuf[:n]
		if _, err := io.ReadFull(c.r, buf); err != nil {
			c.fail(err)
			return nil
		}
		row, err := DecodeRow(buf, c.cols)
		if err != nil {
			c.fail(err)
			return nil
		}
		return row
	}
}

// Drain consumes and discards any remaining rows so the underlying reader
// is positioned at the next result. It returns the cursor's terminal error.
func (c *Cursor) Drain() error {
	for c.Next() != nil {
	}
	return c.err
}

// readTrailer consumes the MsgTrace frame that follows MsgDone on traced
// statements.
func (c *Cursor) readTrailer() error {
	kind, err := c.r.ReadByte()
	if err != nil {
		return err
	}
	if kind != MsgTrace {
		return fmt.Errorf("wire: expected trace trailer, got 0x%x", kind)
	}
	payload, err := ReadTraceBody(c.r)
	if err != nil {
		return err
	}
	if len(payload) > 0 {
		c.trace = payload
	}
	return nil
}

func (c *Cursor) fail(err error) {
	if c.err == nil {
		c.err = err
	}
	c.done = true
}
