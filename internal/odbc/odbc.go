// Package odbc simulates the ODBC data path of the paper's TF(Python)
// baseline: query results leave the database engine as a row-oriented byte
// stream — serialized value by value with type tags, chunked through a real
// in-memory pipe — and are parsed back into boxed values on the client
// ("Python") side. Every byte is produced and consumed for real, so the
// transfer overhead the paper identifies as TF(Python)'s dominant cost
// (Sec. 6.2.1) is measured, not modeled.
//
// The baseline owns the text streaming loop in both directions: results
// travel as wire.MsgRows chunks of wire.EncodeRow text rows and are parsed
// back with wire.DecodeRow. The network SQL server streams binary columnar
// wire.MsgBatch frames instead; the text codec survives only here, where the
// paper's baseline must pay it.
package odbc

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"net"

	"indbml/internal/engine/db"
	"indbml/internal/engine/exec"
	"indbml/internal/wire"
)

// chunkRows is how many rows are framed per MsgRows message; small enough
// to keep a pipe streaming, large enough to amortize framing.
const chunkRows = 512

// Server drains query results from an engine into the wire protocol.
type Server struct {
	DB *db.Database
}

// Serve executes one query and streams its result batches to w. Errors are
// reported in-band so the client always sees a terminated stream.
func (s *Server) Serve(query string, w io.Writer) error {
	bw := bufio.NewWriterSize(w, 64<<10)
	return s.serveOne(query, bw)
}

func (s *Server) serveOne(query string, bw *bufio.Writer) error {
	op, err := s.DB.QueryOp(query)
	if err != nil {
		wire.WriteError(bw, wire.CodeError, err.Error())
		return bw.Flush()
	}
	err = streamText(bw, op)
	// streamText leaves the final frames buffered; deliver them here so the
	// one-shot Serve path needs no caller-side flush.
	if ferr := bw.Flush(); err == nil {
		err = ferr
	}
	return err
}

// streamText runs the full open/next/close protocol on op and streams the
// schema, the rows as count-prefixed text chunks
// ([MsgRows][n]([len][row])×n) and the terminator to w. Every row is
// pivoted out of the columnar batch and formatted value by value: the
// server-side half of the conversion cost the baseline measures. Failures
// are reported in-band; the final chunk and the terminator are left
// buffered.
func streamText(w *bufio.Writer, op exec.Operator) error {
	if err := op.Open(); err != nil {
		return wire.FailStream(w, err)
	}
	defer op.Close()

	wire.WriteSchema(w, op.Schema())
	chunk := make([][]byte, 0, chunkRows)
	flushChunk := func() {
		if len(chunk) == 0 {
			return
		}
		w.WriteByte(wire.MsgRows)
		wire.WriteUvarint(w, uint64(len(chunk)))
		for _, row := range chunk {
			wire.WriteUvarint(w, uint64(len(row)))
			w.Write(row)
		}
		chunk = chunk[:0]
	}
	for {
		b, err := op.Next()
		if err != nil {
			flushChunk()
			return wire.FailStream(w, err)
		}
		if b == nil {
			break
		}
		for r := 0; r < b.Len(); r++ {
			chunk = append(chunk, wire.EncodeRow(nil, b, r))
			if len(chunk) >= chunkRows {
				flushChunk()
				if err := w.Flush(); err != nil {
					// The reader is gone; stop pulling batches.
					return err
				}
			}
		}
	}
	flushChunk()
	wire.WriteDone(w, op)
	return nil
}

// ServeConn handles a full connection: statement frames arrive one after
// another and each is answered with a result stream, so a client can issue
// multiple sequential queries over one pipe (the successor to the one-shot
// Serve). It returns when the client closes the connection.
func (s *Server) ServeConn(conn io.ReadWriter) error {
	br := bufio.NewReaderSize(conn, 64<<10)
	bw := bufio.NewWriterSize(conn, 64<<10)
	for {
		query, _, _, _, err := wire.ReadStmt(br)
		if err != nil {
			if err == io.EOF {
				return nil
			}
			return err
		}
		// Engine errors are reported in-band and leave the connection
		// usable; the writer's sticky error distinguishes a dead transport.
		s.serveOne(query, bw)
		if err := bw.Flush(); err != nil {
			return err
		}
	}
}

// Column describes one result column on the client side.
type Column = wire.Column

// Rows is the client-side cursor over one MsgRows stream. Every row is read
// as its own byte string and its text values are parsed into boxed `any`
// values — the equivalent of Python objects materialized per fetched value.
type Rows struct {
	r       *bufio.Reader
	cols    []Column
	pending uint64 // rows left in the current chunk
	rowBuf  []byte
	queryID uint64
	err     error
	done    bool
}

// readRows consumes a result's schema frame and returns a cursor over the
// rows that follow.
func readRows(r *bufio.Reader) (*Rows, error) {
	cols, err := wire.ReadResultSchema(r)
	if err != nil {
		if se, ok := err.(*wire.ServerError); ok {
			return nil, fmt.Errorf("odbc: server: %s", se.Msg)
		}
		return nil, fmt.Errorf("odbc: reading schema: %w", err)
	}
	return &Rows{r: r, cols: cols}, nil
}

// Columns returns the result schema.
func (rs *Rows) Columns() []Column { return rs.cols }

// Err returns the terminal error, if any.
func (rs *Rows) Err() error { return rs.err }

// Next returns the next row as boxed values, or nil at end of stream.
func (rs *Rows) Next() []any {
	for rs.pending == 0 {
		if rs.done {
			return nil
		}
		kind, err := rs.r.ReadByte()
		if err == nil {
			switch kind {
			case wire.MsgRows:
				rs.pending, err = binary.ReadUvarint(rs.r)
			case wire.MsgDone:
				rs.queryID, err = binary.ReadUvarint(rs.r)
				rs.done = true
			case wire.MsgError:
				err = wire.ReadErrorBody(rs.r)
			default:
				err = fmt.Errorf("odbc: unexpected message kind 0x%x", kind)
			}
		}
		if err != nil {
			rs.fail(err)
			return nil
		}
	}
	rs.pending--
	var err error
	if rs.rowBuf, err = wire.ReadFrame(rs.r, rs.rowBuf); err != nil {
		rs.fail(err)
		return nil
	}
	row, err := wire.DecodeRow(rs.rowBuf, rs.cols)
	if err != nil {
		rs.fail(err)
		return nil
	}
	return row
}

// drain consumes any remaining rows so the connection stays framed.
func (rs *Rows) drain() {
	for rs.Next() != nil {
	}
}

func (rs *Rows) fail(err error) {
	if rs.err == nil {
		rs.err = err
	}
	rs.done = true
}

// QueryID returns the server's flight-recorder ID for this statement,
// available once the stream has finished cleanly (0 before that). It keys
// into system.queries.
func (rs *Rows) QueryID() uint64 { return rs.queryID }

// Query runs a query against the database over an in-memory network pipe
// and returns a client-side cursor. A server goroutine streams the result;
// the returned Rows reads from the connection like a remote client.
func Query(d *db.Database, query string) (*Rows, error) {
	client, server := net.Pipe()
	go func() {
		defer server.Close()
		(&Server{DB: d}).Serve(query, server)
	}()
	return readRows(bufio.NewReaderSize(client, 64<<10))
}

// Session is a client-side handle over one multi-query connection served by
// ServeConn: it sends statement frames and reads result streams in lock
// step, mimicking an ODBC connection that stays open between queries.
type Session struct {
	conn io.ReadWriteCloser
	br   *bufio.Reader
	bw   *bufio.Writer
	cur  *Rows
}

// Connect starts a ServeConn goroutine over an in-memory pipe and returns
// the client half.
func Connect(d *db.Database) *Session {
	client, server := net.Pipe()
	go func() {
		defer server.Close()
		(&Server{DB: d}).ServeConn(server)
	}()
	return NewSession(client)
}

// NewSession wraps an established connection to a ServeConn peer.
func NewSession(conn io.ReadWriteCloser) *Session {
	return &Session{
		conn: conn,
		br:   bufio.NewReaderSize(conn, 64<<10),
		bw:   bufio.NewWriterSize(conn, 64<<10),
	}
}

// Query issues one statement on the session and returns its cursor. Any
// unfinished previous cursor is drained first, keeping the stream framed.
func (s *Session) Query(query string) (*Rows, error) {
	if s.cur != nil {
		s.cur.drain()
		s.cur = nil
	}
	wire.WriteStmt(s.bw, query, 0, 0, 0)
	if err := s.bw.Flush(); err != nil {
		return nil, err
	}
	cur, err := readRows(s.br)
	if err != nil {
		return nil, err
	}
	s.cur = cur
	return s.cur, nil
}

// Close tears down the connection.
func (s *Session) Close() error { return s.conn.Close() }
