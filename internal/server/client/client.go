// Package client dials the network SQL server (package server) and speaks
// the framed protocol of package wire: sequential statements over one
// connection, streamed result cursors, per-query deadlines, and the STATUS
// command.
package client

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"time"

	"indbml/internal/engine/sql"
	"indbml/internal/engine/vector"
	"indbml/internal/wire"
)

// Client is one session against the server. It is not safe for concurrent
// use: statements on a session are sequential by design — open one client
// per concurrent stream of work.
type Client struct {
	conn net.Conn
	br   *bufio.Reader
	bw   *bufio.Writer
	cur  *Rows // unfinished cursor, drained before the next statement
	// frame is InsertBatch's reused MsgBatch encode buffer.
	frame []byte

	// origin stamps every outgoing statement frame with a coordinator query
	// ID (see SetOrigin); 0 for ordinary clients.
	origin uint64
}

// Dial connects to a server at addr ("host:port").
func Dial(addr string) (*Client, error) {
	conn, err := net.DialTimeout("tcp", addr, 10*time.Second)
	if err != nil {
		return nil, err
	}
	return NewClient(conn), nil
}

// NewClient wraps an established connection (used by tests over in-memory
// pipes).
func NewClient(conn net.Conn) *Client {
	return &Client{
		conn: conn,
		br:   bufio.NewReaderSize(conn, 64<<10),
		bw:   bufio.NewWriterSize(conn, 64<<10),
	}
}

// Close tears down the session.
func (c *Client) Close() error { return c.conn.Close() }

// SetOrigin tags every subsequent statement on this session with the given
// coordinator query ID. The server stamps the ID onto its flight-recorder
// entries (origin_qid in system.queries) and KILL ORIGIN <id> cancels every
// statement carrying it — the mechanism a coordinator uses to correlate and
// cancel the shard fragments of one distributed query. Pass 0 to clear.
func (c *Client) SetOrigin(id uint64) { c.origin = id }

// send frames one statement, draining any unfinished previous cursor so
// request and response streams stay in lock step.
func (c *Client) send(sql string, timeout time.Duration, flags uint64) error {
	c.writeStmt(sql, timeout, flags)
	return c.bw.Flush()
}

func (c *Client) writeStmt(sql string, timeout time.Duration, flags uint64) {
	if c.cur != nil {
		c.cur.cur.Drain()
		c.cur = nil
	}
	var millis uint64
	if timeout > 0 {
		millis = uint64(timeout / time.Millisecond)
		if millis == 0 {
			millis = 1
		}
	}
	wire.WriteStmt(c.bw, sql, millis, c.origin, flags)
}

// Query issues a SELECT and returns a streaming cursor over its rows.
func (c *Client) Query(sql string) (*Rows, error) { return c.QueryTimeout(sql, 0) }

// QueryTimeout is Query with a server-enforced deadline: when it expires,
// the server cancels the query mid-scan and terminates the stream with a
// cancellation error (surfaced through Rows.Err).
func (c *Client) QueryTimeout(sql string, timeout time.Duration) (*Rows, error) {
	return c.query(sql, timeout, 0)
}

// QueryTracedTimeout issues a SELECT with StmtFlagTrace set and a
// server-enforced deadline (0 = none): the server executes the statement
// traced and appends the serialized span tree as a trailer after the final
// row frame. The payload is available from Rows.Trace once the stream
// finishes cleanly. The coordinator uses this on shard fragments to stitch
// per-shard operator subtrees into distributed EXPLAIN ANALYZE.
func (c *Client) QueryTracedTimeout(sql string, timeout time.Duration) (*Rows, error) {
	return c.query(sql, timeout, wire.StmtFlagTrace)
}

func (c *Client) query(sql string, timeout time.Duration, flags uint64) (*Rows, error) {
	if err := c.send(sql, timeout, flags); err != nil {
		return nil, err
	}
	cur, err := wire.ReadResultHeader(c.br)
	if err != nil {
		return nil, err
	}
	if flags&wire.StmtFlagTrace != 0 {
		cur.ExpectTrace()
	}
	c.cur = &Rows{cur: cur}
	return c.cur, nil
}

// Exec runs a DDL/DML statement and waits for its acknowledgement.
func (c *Client) Exec(sql string) error { return c.ExecTimeout(sql, 0) }

// ExecTimeout is Exec with a server-enforced deadline.
func (c *Client) ExecTimeout(sql string, timeout time.Duration) error {
	_, err := c.command(sql, timeout)
	return err
}

// Command runs a statement whose reply is a single text payload (STATUS,
// EXPLAIN …) and returns that text.
func (c *Client) Command(sql string) (string, error) { return c.command(sql, 0) }

// Status fetches the server's plain-text stats snapshot.
func (c *Client) Status() (string, error) { return c.command("STATUS", 0) }

// Metrics fetches the server's metrics registry in text exposition format.
// Like STATUS, the verb bypasses admission control so an overloaded server
// can still be observed.
func (c *Client) Metrics() (string, error) { return c.command("METRICS", 0) }

// MetricsFiltered fetches only the metrics whose name starts with prefix
// (the full page when prefix is empty).
func (c *Client) MetricsFiltered(prefix string) (string, error) {
	if prefix == "" {
		return c.Metrics()
	}
	return c.command("METRICS "+prefix, 0)
}

// Batcher fetches the inference scheduler's report (per-queue depth,
// batch-size means, coalesce-wait histogram). Bypasses admission control.
func (c *Client) Batcher() (string, error) { return c.command("BATCHER", 0) }

// Kill cancels the in-flight statement with the given query ID (as shown by
// system.active_queries), whether it is running, queued for admission, or
// waiting for an inference pass. Like STATUS, KILL bypasses
// admission control, so a victim hogging every slot can still be killed
// from this session. Errors if the ID names no active statement.
func (c *Client) Kill(id uint64) error {
	_, err := c.command(fmt.Sprintf("KILL %d", id), 0)
	return err
}

// KillOrigin cancels every in-flight statement whose origin tag (see
// SetOrigin) matches id — all shard fragments of one distributed query.
// Unlike Kill it does not error when nothing matches: the races between a
// coordinator's cancel path and fragments finishing on their own are benign.
func (c *Client) KillOrigin(id uint64) error {
	_, err := c.command(fmt.Sprintf("KILL ORIGIN %d", id), 0)
	return err
}

// InsertBatch appends b's rows to table with one statement: the rows travel
// bound and typed as a row stream (wire.StmtFlagRows), not as INSERT text.
// b must carry every column of the table, in order, under the table's
// column names and types. The server commits the rows at once or not at
// all; a batch whose frames pass the stream limit fails before the server
// applies anything, and closes the session.
func (c *Client) InsertBatch(table string, b *vector.Batch) error {
	c.writeStmt("INSERT INTO "+sql.QuoteTableName(table), 0, wire.StmtFlagRows)
	var err error
	if c.frame, err = wire.WriteRows(c.bw, b, c.frame); err != nil {
		c.conn.Close()
		return err
	}
	if err := c.bw.Flush(); err != nil {
		return err
	}
	_, err = c.reply()
	return err
}

func (c *Client) command(sql string, timeout time.Duration) (string, error) {
	if err := c.send(sql, timeout, 0); err != nil {
		return "", err
	}
	return c.reply()
}

// reply reads a statement's one-frame acknowledgement: MsgOK's text or
// MsgError's error.
func (c *Client) reply() (string, error) {
	kind, err := c.br.ReadByte()
	if err != nil {
		return "", err
	}
	switch kind {
	case wire.MsgOK:
		return wire.ReadOKBody(c.br)
	case wire.MsgError:
		return "", wire.ReadErrorBody(c.br)
	case wire.MsgSchema:
		// The statement produced rows (e.g. Command("SELECT …")); drain
		// them so the connection stays framed, then report the misuse.
		cols, err := wire.ReadSchemaBody(c.br)
		if err != nil {
			return "", err
		}
		wire.NewCursor(c.br, cols).Drain()
		return "", fmt.Errorf("client: statement returned rows; use Query")
	default:
		return "", fmt.Errorf("client: unexpected message kind 0x%x", kind)
	}
}

// Rows is a streaming cursor over one result.
type Rows struct {
	cur *wire.Cursor
}

// Columns returns the result schema.
func (r *Rows) Columns() []wire.Column { return r.cur.Columns() }

// Next returns the next row as boxed values, or nil at end of stream.
func (r *Rows) Next() []any { return r.cur.Next() }

// NextBatch returns the next batch of rows as decoded from the wire, or nil
// at end of stream together with the terminal error. The batch is the
// caller's; no value is boxed.
func (r *Rows) NextBatch() (*vector.Batch, error) { return r.cur.NextBatch() }

// Err returns the terminal error, if any.
func (r *Rows) Err() error { return r.cur.Err() }

// Drain consumes any remaining rows and returns the terminal error.
func (r *Rows) Drain() error { return r.cur.Drain() }

// QueryID returns the server's flight-recorder ID for this statement,
// available once the stream has finished cleanly (0 before that). It keys
// into system.queries.
func (r *Rows) QueryID() uint64 { return r.cur.QueryID() }

// Trace returns the serialized span tree from the MsgTrace trailer, nil
// until a QueryTracedTimeout stream has finished cleanly. Decode it with
// trace.DecodeSpan.
func (r *Rows) Trace() []byte { return r.cur.Trace() }

// BytesRead returns the total batch-frame payload bytes this cursor has
// consumed — the wire-transfer cost of the result so far.
func (r *Rows) BytesRead() int64 { return r.cur.BytesRead() }

// IsOverloaded reports whether err is an admission-control fast-reject.
func IsOverloaded(err error) bool {
	var se *wire.ServerError
	return errors.As(err, &se) && se.Code == wire.CodeOverloaded
}

// IsCanceled reports whether err reports a query ended by deadline or
// cancellation.
func IsCanceled(err error) bool {
	var se *wire.ServerError
	return errors.As(err, &se) && se.Code == wire.CodeCanceled
}
