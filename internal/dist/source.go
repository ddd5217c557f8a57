package dist

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"indbml/internal/engine/types"
	"indbml/internal/engine/vector"
	"indbml/internal/server/client"
	"indbml/internal/trace"
	"indbml/internal/wire"
)

// shardPool is one shard daemon plus a free-list of idle wire connections.
// Sessions are sequential by protocol design, so every concurrent fragment
// takes its own connection; clean ones return to the pool, dirty ones
// (mid-stream teardown) are discarded.
//
// The pool doubles as the shard's health record: cumulative fragment and
// error counts plus the last fragment error, surfaced by system.shards and
// the STATUS shards line.
type shardPool struct {
	id   int
	addr string

	mu   sync.Mutex
	free []*client.Client

	fragments atomic.Int64 // fragment streams opened against this shard
	fragErrs  atomic.Int64 // fragment open/stream failures

	errMu     sync.Mutex
	lastErr   string
	lastErrAt time.Time
}

func (p *shardPool) label() string { return fmt.Sprintf("shard %d (%s)", p.id, p.addr) }

// noteErr records a fragment failure in the health registry.
func (p *shardPool) noteErr(err error) {
	p.fragErrs.Add(1)
	p.errMu.Lock()
	p.lastErr = err.Error()
	p.lastErrAt = time.Now()
	p.errMu.Unlock()
}

// lastError returns the most recent fragment error and its age (ok=false
// when the shard has never failed).
func (p *shardPool) lastError() (msg string, age time.Duration, ok bool) {
	p.errMu.Lock()
	defer p.errMu.Unlock()
	if p.lastErr == "" {
		return "", 0, false
	}
	return p.lastErr, time.Since(p.lastErrAt), true
}

// idleConns reports the free-list depth.
func (p *shardPool) idleConns() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.free)
}

// probe checks reachability with a STATUS round-trip (bypasses admission on
// the shard, so an overloaded shard still reads as reachable).
func (p *shardPool) probe() bool {
	c, err := p.get()
	if err != nil {
		return false
	}
	_, err = c.Status()
	p.release(c, err)
	return err == nil
}

func (p *shardPool) get() (*client.Client, error) {
	p.mu.Lock()
	if n := len(p.free); n > 0 {
		c := p.free[n-1]
		p.free = p.free[:n-1]
		p.mu.Unlock()
		return c, nil
	}
	p.mu.Unlock()
	c, err := client.Dial(p.addr)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", p.label(), err)
	}
	return c, nil
}

func (p *shardPool) put(c *client.Client) {
	c.SetOrigin(0)
	p.mu.Lock()
	p.free = append(p.free, c)
	p.mu.Unlock()
}

// release returns the connection to the pool when the statement ended with
// the stream intact (success or a server-reported error frame both leave
// the framing clean); transport errors discard it.
func (p *shardPool) release(c *client.Client, err error) {
	var se *wire.ServerError
	if err == nil || errors.As(err, &se) {
		p.put(c)
		return
	}
	c.Close()
}

// exec runs one statement on the shard.
func (p *shardPool) exec(ctx context.Context, sqlText string) error {
	return p.do(ctx, func(c *client.Client) error { return c.Exec(sqlText) })
}

// insert appends b to table on the shard as one row stream.
func (p *shardPool) insert(ctx context.Context, table string, b *vector.Batch) error {
	return p.do(ctx, func(c *client.Client) error { return c.InsertBatch(table, b) })
}

// do runs one statement on a pooled connection, retrying admission
// fast-rejects with jittered exponential backoff.
func (p *shardPool) do(ctx context.Context, stmt func(*client.Client) error) error {
	return client.RetryOverloaded(ctx, func() error {
		c, err := p.get()
		if err != nil {
			return err
		}
		err = stmt(c)
		p.release(c, err)
		if err != nil {
			return fmt.Errorf("%s: %w", p.label(), err)
		}
		return nil
	})
}

// closeIdle drops the pooled idle connections (coordinator shutdown).
func (p *shardPool) closeIdle() {
	p.mu.Lock()
	idle := p.free
	p.free = nil
	p.mu.Unlock()
	for _, c := range idle {
		c.Close()
	}
}

// errSourceClosed reports an Open aborted because the exchange tore the
// source down while the fragment connection was still being established —
// a teardown artifact, not a shard failure, so it stays out of the health
// ledger.
var errSourceClosed = errors.New("dist: source closed during open")

// shardSource streams one fragment's result from one shard as an
// exec.RemoteSource: wire batch frames decode straight into engine batches,
// which the source hands to RemoteExchange as they come. The
// fragment is stamped with the coordinator's query ID (origin) so the
// shard's flight recorder correlates it and KILL ORIGIN can reap it.
//
// When the coordinator statement is traced (SetSpan was called), the
// fragment is sent with the wire trace flag: the shard executes it traced
// and ships its span tree back in a trailer after the final row, which is
// grafted under this source's exchange span — the stitch point of
// distributed EXPLAIN ANALYZE. The span additionally records fan-out
// latency, wire bytes in, and first/last-row timing for straggler skew.
type shardSource struct {
	pool    *shardPool
	sqlText string
	schema  *types.Schema
	origin  uint64
	timeout time.Duration
	ctx     context.Context
	stats   *exchStats // coordinator-wide exchange counters (may be nil)

	// connMu guards the connection hand-off: Open publishes c/rows from the
	// producer goroutine while Close may run concurrently on a teardown
	// goroutine (exchange stop after a sibling source failed).
	connMu sync.Mutex
	c      *client.Client
	rows   *client.Rows
	// clean flips once the stream reaches EOS; Close runs on another
	// goroutine during teardown and uses it to decide pool-return vs
	// connection discard.
	clean  atomic.Bool
	closed atomic.Bool

	// Tracing state; only the producer goroutine (Open/Next) touches it.
	span     *trace.Span
	openedAt time.Time
	sawRow   bool
}

func (s *shardSource) Label() string { return s.pool.label() }

// SetSpan implements trace.SpanCarrier: RemoteExchange hands each source
// the child span created for it.
func (s *shardSource) SetSpan(sp *trace.Span) { s.span = sp }

func (s *shardSource) Open() error {
	s.openedAt = time.Now()
	err := client.RetryOverloaded(s.ctx, func() error {
		c, err := s.pool.get()
		if err != nil {
			return err
		}
		c.SetOrigin(s.origin)
		var rows *client.Rows
		if s.span != nil {
			rows, err = c.QueryTracedTimeout(s.sqlText, s.timeout)
		} else {
			rows, err = c.QueryTimeout(s.sqlText, s.timeout)
		}
		if err != nil {
			s.pool.release(c, err)
			return err
		}
		s.connMu.Lock()
		if s.closed.Load() {
			// The exchange tore down while this open was in flight; the
			// stream was never consumed, so the connection is dirty.
			s.connMu.Unlock()
			c.Close()
			return errSourceClosed
		}
		s.c, s.rows = c, rows
		s.connMu.Unlock()
		return checkColumns(rows.Columns(), s.schema)
	})
	if err != nil {
		if errors.Is(err, errSourceClosed) {
			return err // teardown, not a shard failure
		}
		s.pool.noteErr(err)
		if s.stats != nil {
			s.stats.fragmentErrs.Add(1)
		}
		return err
	}
	s.pool.fragments.Add(1)
	if s.stats != nil {
		s.stats.fragments.Add(1)
	}
	if s.span != nil {
		s.span.Counter("fanout_connect_ns").Store(int64(time.Since(s.openedAt)))
	}
	return nil
}

func (s *shardSource) Next() (*vector.Batch, error) {
	b, err := s.rows.NextBatch()
	if err != nil {
		s.pool.noteErr(err)
		if s.stats != nil {
			s.stats.fragmentErrs.Add(1)
		}
		return nil, err
	}
	if b == nil {
		if !s.clean.Swap(true) {
			s.finishStream()
		}
		return nil, nil
	}
	if !s.sawRow {
		s.sawRow = true
		if s.span != nil {
			s.span.Counter("first_row_ns").Store(int64(time.Since(s.openedAt)))
		}
	}
	b.Schema = s.schema
	return s.noteBatch(b), nil
}

// noteBatch charges a produced batch to the source span and the
// coordinator's merge counters.
func (s *shardSource) noteBatch(b *vector.Batch) *vector.Batch {
	if s.span != nil {
		s.span.AddRows(int64(b.Len()))
		s.span.AddBatches(1)
	}
	if s.stats != nil {
		s.stats.rowsMerged.Add(int64(b.Len()))
	}
	return b
}

// finishStream runs once at clean end-of-stream: it records the source's
// streaming totals and skew counters and grafts the shard's span tree —
// carried in the wire trailer on traced fragments — under the exchange
// span.
func (s *shardSource) finishStream() {
	if s.stats != nil {
		s.stats.bytesIn.Add(s.rows.BytesRead())
	}
	if s.span == nil {
		return
	}
	elapsed := time.Since(s.openedAt)
	s.span.AddWall(elapsed)
	s.span.Counter("last_row_ns").Store(int64(elapsed))
	s.span.Counter("wire_bytes_in").Store(s.rows.BytesRead())
	if sub, err := trace.DecodeSpan(s.rows.Trace()); err == nil && sub != nil {
		s.span.Adopt(sub)
	}
}

func (s *shardSource) Close() error {
	if s.closed.Swap(true) {
		return nil
	}
	s.connMu.Lock()
	c := s.c
	s.connMu.Unlock()
	if c == nil {
		return nil
	}
	if s.clean.Load() {
		s.pool.put(c)
		return nil
	}
	// Mid-stream teardown: closing the connection aborts the server-side
	// statement (its write fails) and unblocks any Next in flight.
	return c.Close()
}

// checkColumns verifies that a fragment's result columns have the types the
// coordinator planned, so decoded batches can flow on unconverted.
func checkColumns(cols []wire.Column, planned *types.Schema) error {
	if len(cols) != planned.Len() {
		return fmt.Errorf("dist: fragment returned %d columns, planned %d", len(cols), planned.Len())
	}
	for i, c := range cols {
		if want := planned.Col(i).Type; c.Type != want {
			return fmt.Errorf("dist: fragment column %d (%s) is %v, planned %v", i, c.Name, c.Type, want)
		}
	}
	return nil
}
