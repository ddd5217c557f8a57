package server

import (
	"io"
	"sync/atomic"
	"time"
)

// session is per-connection state beyond the transport: the identity and
// counters published through system.sessions. The counters are atomics
// because the sessions table samples them from other goroutines while the
// session runs.
type session struct {
	id        uint64
	remote    string
	connected time.Time
	out       *countingWriter

	active atomic.Bool   // a statement is being served right now
	stmts  atomic.Int64  // statements received on this session
	curQID atomic.Uint64 // live query ID of the in-flight statement (0 = none)
}

// countingWriter counts bytes written to the transport. It sits between the
// session's bufio.Writer and the net.Conn, so it sees flushed wire frames —
// the bytes that actually left the server for this session.
type countingWriter struct {
	w io.Writer
	n atomic.Int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n.Add(int64(n))
	return n, err
}
