// Package server is the network serving layer in front of the engine: a
// stdlib-only TCP server speaking the framed protocol of package wire, with
// per-connection sessions, admission control, per-query deadlines and live
// stats.
//
// The paper evaluates in-database inference because shipping data out of
// the DBMS is the expensive path; a co-located model still has to be
// *served*, though, and this package is that boundary. Design points:
//
//   - Sessions are one goroutine per connection; statements on a session
//     execute sequentially, so a session is also the unit of ordering.
//   - Admission control is a bounded slot semaphore with a bounded wait
//     queue: when every slot is busy and the queue is full (or the queue
//     wait expires), the statement is fast-rejected with CodeOverloaded
//     instead of piling up — overload sheds load at the door rather than
//     inside the engine.
//   - Every statement runs under a context.Context assembled from the
//     client's deadline and the server's cap; cancellation reaches the
//     Volcano Next loop (Scan leaves, Exchange) via db.Run, so
//     a canceled query frees its slot mid-scan instead of running to
//     completion.
//   - Results stream batch-by-batch over the operator tree db.Run returns —
//     nothing is materialized server-side.
package server

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"indbml/internal/engine/db"
	"indbml/internal/engine/sql"
	"indbml/internal/engine/storage"
	"indbml/internal/engine/vector"
	"indbml/internal/flight"
	"indbml/internal/trace"
	"indbml/internal/wire"
)

// Config tunes the serving layer. The zero value serves with sensible
// defaults (slots = GOMAXPROCS, small queue, no idle timeout).
type Config struct {
	// QuerySlots caps concurrently executing statements across all
	// sessions. 0 means runtime.GOMAXPROCS(0).
	QuerySlots int
	// QueueDepth caps statements waiting for a slot; a statement arriving
	// when the queue is full is rejected immediately. 0 means no queueing:
	// every statement that cannot get a slot at once is rejected.
	QueueDepth int
	// QueueWait bounds how long a queued statement waits for a slot before
	// being rejected. 0 means wait until the statement's own deadline (or
	// forever).
	QueueWait time.Duration
	// IdleTimeout closes sessions that send no statement for this long.
	// 0 disables the timeout.
	IdleTimeout time.Duration
	// MaxQueryDuration caps every statement's execution time, including
	// statements whose clients request no deadline. 0 means uncapped.
	MaxQueryDuration time.Duration
	// SlowQueryLog, when non-nil, enables the structured slow-query log:
	// SELECTs slower than SlowQueryThreshold — plus every SELECT ending in
	// an error or cancellation — are written as one JSON line embedding the
	// full per-operator trace.
	SlowQueryLog io.Writer
	// SlowQueryThreshold is the duration above which a successful
	// statement is logged. 0 logs every SELECT.
	SlowQueryThreshold time.Duration
	// AlertLog, when non-nil, receives one JSON line per alert
	// firing/resolved transition, in the slow-query-log style.
	AlertLog io.Writer
}

func (c Config) withDefaults() Config {
	if c.QuerySlots <= 0 {
		c.QuerySlots = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth < 0 {
		c.QueueDepth = 0
	}
	return c
}

// Server serves SQL over TCP connections.
type Server struct {
	db    *db.Database
	cfg   Config
	stats *Stats
	slow  *slowLog // nil when the slow-query log is disabled

	slots chan struct{} // buffered semaphore: one token per running query

	baseCtx    context.Context // canceled on hard stop: aborts running queries
	baseCancel context.CancelFunc

	mu       sync.Mutex
	ln       net.Listener
	conns    map[net.Conn]struct{}
	draining bool

	// Connection registry behind system.sessions: one entry per live
	// session, keyed by session ID. Mutated twice per connection (attach/
	// detach); per-statement counters live on the sessions as atomics.
	sessMu   sync.Mutex
	sessions map[uint64]*session
	sessSeq  atomic.Uint64

	wg sync.WaitGroup // live session handlers
}

// New creates a server over an opened database: it registers its own
// collectors on the database's registry and system.sessions in its catalog,
// so a database is served by at most one server. New starts the database's
// telemetry sampler and Shutdown stops it.
func New(d *db.Database, cfg Config) *Server {
	cfg = cfg.withDefaults()
	ctx, cancel := context.WithCancel(context.Background())
	reg := d.Metrics()
	s := &Server{
		db:         d,
		cfg:        cfg,
		stats:      newStats(reg),
		slots:      make(chan struct{}, cfg.QuerySlots),
		baseCtx:    ctx,
		baseCancel: cancel,
		conns:      make(map[net.Conn]struct{}),
		sessions:   make(map[uint64]*session),
	}
	if cfg.SlowQueryLog != nil {
		s.slow = &slowLog{w: cfg.SlowQueryLog, threshold: cfg.SlowQueryThreshold}
	}
	reg.NewGaugeFunc("vectordb_query_slots", "Configured query-slot capacity.",
		func() float64 { return float64(cfg.QuerySlots) })
	reg.NewGaugeFunc("vectordb_query_slots_in_use", "Query slots currently held.",
		func() float64 { return float64(len(s.slots)) })
	reg.NewGaugeFunc("vectordb_queue_capacity", "Configured admission-queue depth.",
		func() float64 { return float64(cfg.QueueDepth) })
	// The connection registry lives here, not in the engine, so the
	// sessions table does too: system.sessions joins to
	// system.active_queries on current_query_id.
	d.RegisterVirtualTable(storage.NewVirtualTable("system.sessions", sessionsSchema, s.fillSessions))
	d.Telemetry().Start(cfg.AlertLog)
	return s
}

// DB exposes the underlying database (for in-process seeding by daemons
// and tests).
func (s *Server) DB() *db.Database { return s.db }

// ListenAndServe listens on addr and serves until Shutdown or a listener
// error.
func (s *Server) ListenAndServe(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return s.Serve(ln)
}

// Serve accepts connections on ln until the listener fails or Shutdown
// closes it. Each connection is handled on its own goroutine.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		ln.Close()
		return fmt.Errorf("server: already shut down")
	}
	s.ln = ln
	s.mu.Unlock()

	for {
		conn, err := ln.Accept()
		if err != nil {
			s.mu.Lock()
			draining := s.draining
			s.mu.Unlock()
			if draining {
				return nil
			}
			return err
		}
		s.mu.Lock()
		if s.draining {
			s.mu.Unlock()
			conn.Close()
			return nil
		}
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(1)
		go s.handleConn(conn)
	}
}

// Addr returns the bound listener address (nil before Serve).
func (s *Server) Addr() net.Addr {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ln == nil {
		return nil
	}
	return s.ln.Addr()
}

// Shutdown drains the server gracefully: the listener closes, idle
// sessions end at once, busy sessions finish their in-flight statement,
// and no new statements are admitted. If ctx expires first, running
// queries are canceled and connections force-closed.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	s.draining = true
	ln := s.ln
	// Poke every session out of its blocking read: sessions parked between
	// statements wake with a deadline error and see the drain flag; busy
	// sessions only read again after finishing their statement, at which
	// point they also see the flag.
	for conn := range s.conns {
		conn.SetReadDeadline(time.Now())
	}
	s.mu.Unlock()
	if ln != nil {
		ln.Close()
	}

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		s.baseCancel()
		s.db.Telemetry().Stop()
		return nil
	case <-ctx.Done():
		// Hard stop: cancel running queries and cut the transports.
		s.baseCancel()
		s.mu.Lock()
		for conn := range s.conns {
			conn.Close()
		}
		s.mu.Unlock()
		<-done
		s.db.Telemetry().Stop()
		return ctx.Err()
	}
}

// Close hard-stops the server without draining.
func (s *Server) Close() error {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := s.Shutdown(ctx)
	if errors.Is(err, context.Canceled) {
		return nil
	}
	return err
}

// StatusText renders the live stats snapshot served to STATUS commands.
func (s *Server) StatusText() string {
	sn := s.stats.snapshot()
	sn.Slots = int64(s.cfg.QuerySlots)
	sn.SlotsInUse = int64(len(s.slots))
	sn.QueueDepth = int64(s.cfg.QueueDepth)
	mc := s.db.ModelCacheStats()
	sn.CacheHits, sn.CacheMisses, sn.CacheEvictions, sn.CacheEntries = mc.Hits, mc.Misses, mc.Evictions, mc.Entries
	sn.Batcher = s.db.InferSched().StatusLine()
	sn.Shards = s.db.RouterStatus()
	sn.Alerts = s.db.Telemetry().StatusLine()
	return sn.String()
}

func (s *Server) isDraining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// handleConn runs one session: a loop of read-statement / serve-statement.
func (s *Server) handleConn(conn net.Conn) {
	s.stats.ActiveSessions.Add(1)
	s.stats.TotalSessions.Add(1)
	defer func() {
		s.stats.ActiveSessions.Add(-1)
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
		conn.Close()
		s.wg.Done()
	}()

	cw := &countingWriter{w: conn}
	br := bufio.NewReaderSize(conn, 64<<10)
	bw := bufio.NewWriterSize(cw, 64<<10)
	sess := s.attachSession(conn.RemoteAddr().String(), cw)
	defer s.detachSession(sess)
	for {
		if s.isDraining() {
			return
		}
		if s.cfg.IdleTimeout > 0 {
			conn.SetReadDeadline(time.Now().Add(s.cfg.IdleTimeout))
		} else {
			conn.SetReadDeadline(time.Time{})
		}
		stmt, deadlineMillis, origin, flags, err := wire.ReadStmt(br)
		if err != nil {
			// EOF: client hung up. Deadline: idle timeout or drain poke.
			// Either way the session ends; an idle-timeout gets a courtesy
			// error frame (best effort — the client may be gone).
			if errors.Is(err, os.ErrDeadlineExceeded) && !s.isDraining() {
				conn.SetWriteDeadline(time.Now().Add(time.Second))
				wire.WriteError(bw, wire.CodeShutdown, "session closed: idle timeout")
				bw.Flush()
			}
			return
		}
		// A row stream is read whole, under the same idle deadline, before
		// the statement is admitted: a rejected statement then leaves the
		// connection framed. A stream that cannot be read (cut, malformed,
		// past the size limit) leaves it unframed, so the session ends.
		var rows *vector.Batch
		if flags&wire.StmtFlagRows != 0 {
			if rows, err = wire.ReadRows(br); err != nil {
				s.stats.Failed.Add(1)
				conn.SetWriteDeadline(time.Now().Add(time.Second))
				wire.WriteError(bw, wire.CodeError, "row stream: "+err.Error())
				bw.Flush()
				return
			}
		}
		conn.SetReadDeadline(time.Time{})
		if s.isDraining() {
			wire.WriteError(bw, wire.CodeShutdown, "server is shutting down")
			bw.Flush()
			return
		}
		sess.stmts.Add(1)
		sess.active.Store(true)
		s.serveStmt(bw, sess, stmt, rows, deadlineMillis, origin, flags)
		sess.active.Store(false)
		if err := bw.Flush(); err != nil {
			return
		}
	}
}

// queryCtx assembles the statement's execution context from the client's
// requested deadline and the server's cap.
func (s *Server) queryCtx(deadlineMillis uint64) (context.Context, context.CancelFunc) {
	timeout := time.Duration(0)
	if deadlineMillis > 0 {
		timeout = time.Duration(deadlineMillis) * time.Millisecond
	}
	if s.cfg.MaxQueryDuration > 0 && (timeout == 0 || timeout > s.cfg.MaxQueryDuration) {
		timeout = s.cfg.MaxQueryDuration
	}
	if timeout > 0 {
		return context.WithTimeout(s.baseCtx, timeout)
	}
	return context.WithCancel(s.baseCtx)
}

// admit acquires a query slot, queueing up to the configured depth and
// wait; the statement holds it until it ends, and then releases it by
// receiving from s.slots exactly once. On error the statement was rejected
// or canceled without a slot, and code is the wire code to report. wait is
// the time the statement spent queued (0 on the fast path), which the
// flight recorder charges to the statement as queue_wait_ns.
func (s *Server) admit(ctx context.Context) (wait time.Duration, code byte, err error) {
	// Fast path: a slot is free.
	select {
	case s.slots <- struct{}{}:
		return 0, 0, nil
	default:
	}
	// Slow path: queue if there is room.
	if s.cfg.QueueDepth == 0 {
		s.stats.Rejected.Add(1)
		return 0, wire.CodeOverloaded, fmt.Errorf("overloaded: %d query slots busy and no queue", s.cfg.QuerySlots)
	}
	if n := s.stats.Queued.Add(1); n > int64(s.cfg.QueueDepth) {
		s.stats.Queued.Add(-1)
		s.stats.Rejected.Add(1)
		return 0, wire.CodeOverloaded, fmt.Errorf("overloaded: %d query slots busy, queue of %d full", s.cfg.QuerySlots, s.cfg.QueueDepth)
	}
	defer s.stats.Queued.Add(-1)
	enqueued := time.Now()
	defer func() {
		wait = time.Since(enqueued)
		s.stats.QueuedWait.ObserveDuration(wait)
	}()

	var timeout <-chan time.Time
	if s.cfg.QueueWait > 0 {
		t := time.NewTimer(s.cfg.QueueWait)
		defer t.Stop()
		timeout = t.C
	}
	select {
	case s.slots <- struct{}{}:
		return 0, 0, nil
	case <-timeout:
		s.stats.Rejected.Add(1)
		return 0, wire.CodeOverloaded, fmt.Errorf("overloaded: no query slot within %s", s.cfg.QueueWait)
	case <-ctx.Done():
		s.stats.Canceled.Add(1)
		return 0, wire.CodeCanceled, fmt.Errorf("canceled while queued: %w", ctx.Err())
	}
}

// serveStmt serves one statement; rows is the row stream that came with a
// StmtFlagRows statement (nil otherwise). The protocol verbs are matched
// first (serveVerb). Anything else is read once, by sql.ParseNormalized,
// and that one parse decides what runs: the statement enters the live
// registry with the parse's shape, is admitted — a KILL is not: it must
// work on a server whose slots are all held by the statements it exists to
// cancel — and is handed to the engine's one statement entry, db.Run. One
// reply path answers whatever Run returned: rows, a rendering, "ok" or an
// error frame. Like every reply but a stream's batches, it is flushed only
// after serveStmt returns, so the outcome is counted and the query slot
// released before the client sees it.
func (s *Server) serveStmt(bw *bufio.Writer, sess *session, stmt string, rows *vector.Batch, deadlineMillis, origin, flags uint64) {
	text := strings.TrimSpace(stmt)
	if rows == nil && s.serveVerb(bw, text) {
		return
	}
	p := sql.ParseNormalized(text, rows != nil)

	start := time.Now()
	ctx, cancel := s.queryCtx(deadlineMillis)
	defer cancel()

	// Enter the live registry before admission: a statement parked in the
	// admission queue is already visible in system.active_queries (state
	// "queued") and already killable — KILL's cancel fires the queue wait's
	// ctx.Done. The engine's flight record adopts the entry (same query ID),
	// and its Finish unregisters; the defer covers statements that never
	// reach the engine's flight (rejected ones, EXPLAIN).
	fr := s.db.FlightRecorder()
	live := fr.Register(p, sess.remote, origin, cancel)
	ctx = flight.WithLive(ctx, live)
	sess.curQID.Store(live.ID())
	defer func() {
		sess.curQID.Store(0)
		fr.Unregister(live)
	}()

	var exemplarID uint64
	if _, kill := p.Stmt.(*sql.KillStmt); !kill {
		wait, code, err := s.admit(ctx)
		if err != nil {
			wire.WriteError(bw, code, err.Error())
			return
		}
		// Charge the admission wait to the statement's flight record.
		ctx = flight.WithQueueWait(ctx, wait)
		s.stats.Running.Add(1)
		defer func() {
			s.stats.Running.Add(-1)
			<-s.slots
			s.stats.observeLatency(time.Since(start), exemplarID)
		}()
	}

	res, err := s.db.Run(ctx, p, rows)
	switch {
	case err != nil:
		code := wire.CodeError
		if wire.IsCancellation(err) {
			code = wire.CodeCanceled
		}
		wire.WriteError(bw, code, err.Error())
	case res.Op != nil:
		exemplarID = live.ID()
		err = s.streamSelect(bw, live, res, start, flags&wire.StmtFlagTrace != 0)
	case res.Text != "":
		wire.WriteOK(bw, res.Text)
	default:
		wire.WriteOK(bw, "ok")
	}
	s.stats.countOutcome(err)
}

// serveVerb answers the protocol verbs, which are not SQL and bypass
// admission control so that operators can observe an overloaded server:
// STATUS, METRICS [prefix] and BATCHER. It reports whether text was one
// (or empty).
func (s *Server) serveVerb(bw *bufio.Writer, text string) bool {
	switch {
	case text == "":
		wire.WriteError(bw, wire.CodeError, "empty statement")
	case strings.EqualFold(text, "STATUS"):
		wire.WriteOK(bw, s.StatusText())
	case strings.EqualFold(text, "METRICS") || len(text) > len("METRICS ") && strings.EqualFold(text[:len("METRICS ")], "METRICS "):
		// METRICS [prefix]: the optional argument filters the exposition
		// page to metric names with that prefix (metric names are
		// lower-case, so it is matched as sent).
		wire.WriteOK(bw, s.db.Metrics().TextFiltered(strings.TrimSpace(text[len("METRICS"):])))
	case strings.EqualFold(text, "BATCHER"):
		wire.WriteOK(bw, s.db.InferSched().StatsText())
	default:
		return false
	}
	return true
}

// streamSelect streams a SELECT's rows to the client. With the slow-query
// log enabled, a slow or failing query leaves a JSON line embedding its
// per-operator span tree.
//
// When the client set StmtFlagTrace, a MsgTrace trailer carrying the
// serialized span tree follows the final MsgDone — the mechanism a
// coordinator uses to stitch shard fragment subtrees into distributed
// EXPLAIN ANALYZE. Error-terminated streams carry no trailer.
func (s *Server) streamSelect(bw *bufio.Writer, live *flight.LiveQuery, res db.Result, start time.Time, traced bool) error {
	rows, err := wire.StreamOperator(bw, res.Op)
	s.stats.RowsServed.Add(rows)
	if traced && err == nil {
		// StreamOperator has closed the operator, so the span totals are
		// final; the trailer rides the same flush as MsgDone.
		payload, _ := trace.EncodeSpan(res.Trace.Root)
		wire.WriteTrace(bw, payload)
	}
	if s.slow.shouldLog(res.Trace.Total(), err) {
		s.stats.SlowLogged.Add(1)
		s.slow.log(start, verdictFor(err, wire.IsCancellation(err)), live.ID(), flight.Hex(live.Fingerprint()), rows, res.Trace)
	}
	return err
}
