package wire

import (
	"bufio"
	"encoding/binary"
	"fmt"

	"indbml/internal/engine/types"
	"indbml/internal/engine/vector"
)

// Cursor is the client-side reader of one result stream: it consumes
// MsgBatch frames up to the MsgDone (or MsgError) terminator and decodes
// each into typed vectors. Next boxes the rows into `any` values — the
// equivalent of Python objects materialized per fetched value — and
// NextBatch hands whole decoded batches over without boxing.
//
// The cursor reads exactly one result stream and leaves the underlying
// reader positioned after the terminator, so several results can follow
// each other on one connection.
type Cursor struct {
	r       *bufio.Reader
	cols    []Column
	schema  *types.Schema
	err     error
	done    bool
	queryID uint64 // flight-recorder ID from the MsgDone terminator

	frame []byte        // reused MsgBatch payload buffer
	batch *vector.Batch // Next's reused decoded frame
	boxed []any         // its rows Next has not returned yet, boxed row-major
	left  int           // how many rows boxed holds

	expectTrace bool   // statement was sent with StmtFlagTrace
	trace       []byte // MsgTrace trailer payload (nil until MsgDone)
	bytesRead   int64  // total MsgBatch payload bytes read
	limit       int64  // bound on bytesRead (0: none; ReadRows sets it)
}

// NewCursor builds a cursor over a stream whose MsgSchema frame has
// already been consumed into cols.
func NewCursor(r *bufio.Reader, cols []Column) *Cursor {
	tcols := make([]types.Column, len(cols))
	for i, c := range cols {
		tcols[i] = types.Column{Name: c.Name, Type: c.Type}
	}
	return &Cursor{r: r, cols: cols, schema: types.NewSchema(tcols...)}
}

// ReadResultHeader consumes a result stream's first frame — MsgSchema or
// MsgError — and returns a cursor over the rows that follow.
func ReadResultHeader(r *bufio.Reader) (*Cursor, error) {
	cols, err := ReadResultSchema(r)
	if err != nil {
		return nil, err
	}
	return NewCursor(r, cols), nil
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

// BytesRead returns the total MsgBatch payload bytes consumed so far — the
// wire-transfer cost of the result, used by the coordinator to attribute
// bytes-in per shard.
func (c *Cursor) BytesRead() int64 { return c.bytesRead }

// Next returns the next row as boxed values, or nil at end of stream. The
// row is the caller's to keep.
func (c *Cursor) Next() []any {
	if c.left == 0 {
		if !c.readFrame(c.decoded()) {
			return nil
		}
		c.boxFrame()
	}
	nc := len(c.cols)
	row := c.boxed[:nc:nc]
	c.boxed = c.boxed[nc:]
	c.left--
	return row
}

// NextBatch returns the next batch of rows, nil at end of stream (with the
// terminal error, if any). The batch is the caller's: the cursor never
// touches it again. Rows of a frame Next has started on come first.
func (c *Cursor) NextBatch() (*vector.Batch, error) {
	if c.left > 0 {
		lo, hi := c.batch.Len()-c.left, c.batch.Len()
		b := vector.NewBatch(c.schema, c.left)
		for i, v := range b.Vecs {
			v.AppendRange(c.batch.Vecs[i], lo, hi)
		}
		b.SetLen(c.left)
		c.boxed, c.left = nil, 0
		return b, nil
	}
	b := vector.NewBatch(c.schema, 0)
	if !c.readFrame(b) {
		return nil, c.err
	}
	return b, nil
}

// Drain consumes and discards any remaining rows so the underlying reader
// is positioned at the next result. It returns the cursor's terminal error.
func (c *Cursor) Drain() error {
	c.boxed, c.left = nil, 0
	for c.readFrame(c.decoded()) {
	}
	return c.err
}

// decoded returns Next's reused batch.
func (c *Cursor) decoded() *vector.Batch {
	if c.batch == nil {
		c.batch = vector.NewBatch(c.schema, 0)
	}
	return c.batch
}

// readFrame decodes the next MsgBatch frame that has rows into dst. It
// returns false once the stream has ended, cleanly or not.
func (c *Cursor) readFrame(dst *vector.Batch) bool {
	for !c.done {
		kind, err := c.r.ReadByte()
		if err != nil {
			c.fail(err)
			break
		}
		switch kind {
		case MsgBatch:
			if err := c.decodeFrame(dst); err != nil {
				c.fail(err)
			} else if dst.Len() > 0 {
				return true
			}
		case MsgDone:
			if err := c.finish(); err != nil {
				c.fail(err)
			}
			c.done = true
		case MsgError:
			c.fail(ReadErrorBody(c.r))
		default:
			c.fail(fmt.Errorf("wire: unexpected message kind 0x%x", kind))
		}
	}
	return false
}

func (c *Cursor) decodeFrame(dst *vector.Batch) error {
	n, err := readLen(c.r)
	if err != nil {
		return err
	}
	if c.limit > 0 && c.bytesRead+int64(n) > c.limit {
		return errRowsTooLarge
	}
	if c.frame, err = readN(c.r, c.frame, n); err != nil {
		return err
	}
	c.bytesRead += int64(n)
	return decodeBatch(c.frame, dst)
}

// boxFrame boxes the decoded frame column by column into a fresh row-major
// array that Next slices rows out of.
func (c *Cursor) boxFrame() {
	nc, n := len(c.cols), c.batch.Len()
	c.boxed, c.left = make([]any, n*nc), n
	for j, v := range c.batch.Vecs {
		col := c.boxed[j:]
		switch v.Type() {
		case types.Bool:
			box(col, nc, v.Bools())
		case types.Int32:
			box(col, nc, v.Int32s())
		case types.Int64:
			box(col, nc, v.Int64s())
		case types.Float32:
			box(col, nc, v.Float32s())
		case types.Float64:
			box(col, nc, v.Float64s())
		case types.String:
			box(col, nc, v.Strings())
		}
		for r, null := range v.Nulls() {
			if null {
				col[r*nc] = nil
			}
		}
	}
}

// box stores vals[r] at dst[r*stride].
func box[T any](dst []any, stride int, vals []T) {
	for r, x := range vals {
		dst[r*stride] = x
	}
}

// finish consumes the rest of a clean terminator: the query ID and, when
// armed, the MsgTrace trailer.
func (c *Cursor) finish() error {
	qid, err := binary.ReadUvarint(c.r)
	if err != nil {
		return err
	}
	c.queryID = qid
	if !c.expectTrace {
		return nil
	}
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
