package server

import (
	"context"
	"io"
	"sync"
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

// slotToken is one admitted statement's hold on the query-slot semaphore.
// It implements infersched.SlotYielder so a statement parked in a coalesce
// window releases its slot for the wait — otherwise 8 waiting queries on an
// 8-slot server would block all progress while coalescing.
//
// Yield/Unyield may be called concurrently by the statement's partition-
// parallel operator instances; the mutex serializes them and makes both
// idempotent. release is Yield under another name, called exactly once by
// serveStmt's defer (releasing an already-yielded token is a no-op).
type slotToken struct {
	slots chan struct{}
	mu    sync.Mutex
	held  bool
}

func newSlotToken(slots chan struct{}) *slotToken {
	return &slotToken{slots: slots, held: true}
}

// Yield gives the slot back if held.
func (t *slotToken) Yield() {
	t.mu.Lock()
	h := t.held
	t.held = false
	t.mu.Unlock()
	if h {
		<-t.slots
	}
}

// Unyield re-acquires a slot, blocking until one frees or ctx is done.
// Concurrent Unyields race benignly: the loser returns its extra token.
func (t *slotToken) Unyield(ctx context.Context) error {
	t.mu.Lock()
	if t.held {
		t.mu.Unlock()
		return nil
	}
	t.mu.Unlock()
	select {
	case t.slots <- struct{}{}:
	case <-ctx.Done():
		return ctx.Err()
	}
	t.mu.Lock()
	if t.held {
		// Another partition instance re-acquired first; give ours back.
		t.mu.Unlock()
		<-t.slots
		return nil
	}
	t.held = true
	t.mu.Unlock()
	return nil
}

// release drops the slot at statement end.
func (t *slotToken) release() { t.Yield() }
