// Package odbc simulates the ODBC data path of the paper's TF(Python)
// baseline: query results leave the database engine as a row-oriented byte
// stream — serialized value by value with type tags, chunked through a real
// in-memory pipe — and are parsed back into boxed values on the client
// ("Python") side. Every byte is produced and consumed for real, so the
// transfer overhead the paper identifies as TF(Python)'s dominant cost
// (Sec. 6.2.1) is measured, not modeled.
//
// The byte-level encoding lives in package wire and is shared with the
// network SQL server (package server), so baseline and serving
// measurements use the identical row format.
package odbc

import (
	"bufio"
	"fmt"
	"io"
	"net"

	"indbml/internal/engine/db"
	"indbml/internal/wire"
)

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
	_, err = wire.StreamOperator(bw, op)
	// StreamOperator leaves the final frames buffered; deliver them here so
	// the one-shot Serve path needs no caller-side flush.
	if ferr := bw.Flush(); err == nil {
		err = ferr
	}
	return err
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

// Rows is the client-side cursor. Values are decoded into boxed `any`
// slices — the equivalent of Python objects materialized per fetched value.
type Rows struct {
	cur *wire.Cursor
}

// Columns returns the result schema.
func (rs *Rows) Columns() []Column { return rs.cur.Columns() }

// Err returns the terminal error, if any.
func (rs *Rows) Err() error { return rs.cur.Err() }

// Next returns the next row as boxed values, or nil at end of stream.
func (rs *Rows) Next() []any { return rs.cur.Next() }

// QueryID returns the server's flight-recorder ID for this statement,
// available once the stream has finished cleanly (0 before that). It keys
// into system.queries.
func (rs *Rows) QueryID() uint64 { return rs.cur.QueryID() }

// Query runs a query against the database over an in-memory network pipe
// and returns a client-side cursor. A server goroutine streams the result;
// the returned Rows reads from the connection like a remote client.
func Query(d *db.Database, query string) (*Rows, error) {
	client, server := net.Pipe()
	go func() {
		defer server.Close()
		(&Server{DB: d}).Serve(query, server)
	}()
	r := bufio.NewReaderSize(client, 64<<10)
	cur, err := wire.ReadResultHeader(r)
	if err != nil {
		if se, ok := err.(*wire.ServerError); ok {
			return nil, fmt.Errorf("odbc: server: %s", se.Msg)
		}
		return nil, fmt.Errorf("odbc: reading schema: %w", err)
	}
	return &Rows{cur: cur}, nil
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
		s.cur.cur.Drain()
		s.cur = nil
	}
	wire.WriteStmt(s.bw, query, 0, 0, 0)
	if err := s.bw.Flush(); err != nil {
		return nil, err
	}
	cur, err := wire.ReadResultHeader(s.br)
	if err != nil {
		if se, ok := err.(*wire.ServerError); ok {
			return nil, fmt.Errorf("odbc: server: %s", se.Msg)
		}
		return nil, err
	}
	s.cur = &Rows{cur: cur}
	return s.cur, nil
}

// Close tears down the connection.
func (s *Session) Close() error { return s.conn.Close() }
