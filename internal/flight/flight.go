// Package flight implements the always-on query flight recorder: every
// statement — successful or not — leaves behind a compact Summary in a
// fixed-size ring buffer, queryable from inside the database via the
// system.* virtual tables.
//
// Design:
//
//   - The ring is a metrics.Ring[Summary]. Publishing a finished query is
//     one atomic counter increment to claim a slot plus one pointer store;
//     readers snapshot by loading every slot. No locks, no allocation on
//     the reader side beyond the result slice, and a slow reader can never
//     block writers — it just sees whichever summaries were current when
//     it looked.
//   - Summaries are immutable once published. A concurrent overwrite of a
//     slot swaps the whole pointer, so a reader sees either the old or the
//     new Summary, never a torn one.
//   - The per-operator breakdown (OpStat) is folded from the PR-4 span
//     tree at query end, off the per-batch hot path. Queries always
//     execute with spans attached; the span hot path is a handful of
//     atomic adds per batch.
//   - Allocation accounting uses the process-wide /gc/heap/allocs:bytes
//     runtime metric (no stop-the-world, unlike runtime.ReadMemStats read
//     on every statement would be) sampled at statement start and end.
//     Under concurrency the delta attributes co-running statements' allocs
//     to each other; it is a magnitude signal, not an exact ledger.
package flight

import (
	"context"
	rtmetrics "runtime/metrics"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"indbml/internal/engine/exec"
	"indbml/internal/engine/sql"
	"indbml/internal/engine/types"
	"indbml/internal/engine/vector"
	"indbml/internal/metrics"
	"indbml/internal/trace"
)

// DefaultSize is the ring capacity when none is configured.
const DefaultSize = 1024

// maxSQLLen bounds the statement text retained per summary so the ring's
// memory footprint stays fixed regardless of query size; the normalized
// exemplar stops at the same length.
const maxSQLLen = sql.MaxNormalizedLen

// Summary is the per-statement flight record. All fields are final once
// the summary is published to the ring.
type Summary struct {
	ID uint64
	// Origin is the coordinator query ID when this statement executed as a
	// distributed shard fragment (0 otherwise); system.queries exposes it
	// as origin_qid so a fleet view can group fragments by coordinator
	// query.
	Origin       uint64
	Start        time.Time
	SQL          string
	Fingerprint  uint64 // statement-shape fingerprint (sql.ParseNormalized)
	Kind         string // select, insert, update, delete, create, drop, kill, ...
	Approach     string // sql, or modeljoin for a SELECT with a MODEL JOIN
	Device       string // inference device ("cpu", "gpu-sim", ...; "" without inference)
	Error        string // "" on success
	LatencyNS    int64
	QueueWaitNS  int64
	RowsOut      int64
	RowsIn       int64 // rows produced by storage scans
	BytesScanned int64
	BlocksPruned int64
	Cache        string // model cache verdict: "hit", "miss", or ""
	Batched      string // inference-scheduler verdict: "yes", "no", or ""
	AllocBytes   int64
	Ops          []OpStat

	// normSQL is the normalized statement text, carried to the statement
	// stats at publish time (retained there as the shape exemplar).
	normSQL string
}

// OpStat is one operator of the folded span tree, preorder-numbered.
type OpStat struct {
	Seq      int
	Depth    int
	Op       string
	WallNS   int64
	Rows     int64
	Batches  int64
	Counters []trace.CounterStat
}

// Recorder is the fixed-size ring of published summaries plus the query ID
// allocator. The zero value is not usable; use NewRecorder. All methods
// are safe for concurrent use.
type Recorder struct {
	ring *metrics.Ring[Summary]
	ids  atomic.Uint64 // query ID allocator; IDs start at 1

	// live is the in-flight statement registry (system.active_queries and
	// the KILL target index). Registration traffic is two map operations
	// per statement, far off any per-batch path; progress itself is read
	// from the statements' atomic span counters, not under this lock.
	liveMu sync.Mutex
	live   map[uint64]*LiveQuery

	// stats is the cumulative per-statement-shape fold fed at publish
	// time.
	stats *Stats
}

// NewRecorder creates a recorder with the given ring capacity
// (<= 0 selects DefaultSize).
func NewRecorder(size int) *Recorder {
	if size <= 0 {
		size = DefaultSize
	}
	return &Recorder{
		ring:  metrics.NewRing[Summary](size),
		live:  make(map[uint64]*LiveQuery),
		stats: &Stats{rows: make(map[StatKey]*StatRow)},
	}
}

// Stats returns the cumulative statement stats every published summary is
// folded into.
func (r *Recorder) Stats() *Stats { return r.stats }

// Capacity returns the ring size.
func (r *Recorder) Capacity() int { return r.ring.Cap() }

// Recorded returns the total number of summaries ever published (not
// capped at capacity).
func (r *Recorder) Recorded() uint64 { return r.ring.Pushed() }

// Snapshot returns the currently retained summaries ordered by query ID
// (the ring holds them in finish order). The returned summaries are shared
// immutable records; callers must not mutate them.
func (r *Recorder) Snapshot() []*Summary {
	out := r.ring.Snapshot()
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

func (r *Recorder) record(s *Summary) {
	r.ring.Push(s)
	// The cumulative per-shape stats are fed here — the single point every
	// finished statement passes through — so they keep accumulating after
	// the ring wraps and this summary's slot is overwritten.
	r.stats.observe(s)
}

// BeginFor opens the flight record of a statement entered into the live
// registry, sampling the allocation baseline. The flight adopts the live
// entry's query ID and shape (so the ID a client saw in
// system.active_queries is the ID published to system.queries), flips its
// state to running, and removes it from the registry when the statement
// finishes. The summary's Start is execution begin — queue wait is charged
// separately via QueueWaitNS. Pass the eventual outcome to Finish; an
// abandoned flight is simply never published.
func (r *Recorder) BeginFor(live *LiveQuery, kind, approach string) *Flight {
	live.state.Store(stateRunning)
	return &Flight{
		rec: r,
		sum: &Summary{
			ID:          live.id,
			Origin:      live.origin,
			Start:       time.Now(),
			SQL:         live.sql,
			Fingerprint: live.fp,
			Kind:        kind,
			Approach:    approach,
			normSQL:     live.norm,
		},
		live:       live,
		startAlloc: allocBytes(),
	}
}

// Flight is one in-progress statement's record. It is written by the
// statement's own goroutine (the Volcano protocol is sequential), so the
// setters are plain stores; only Finish is guarded, because the operator
// wrapper may race its end-of-stream finalization against Close.
type Flight struct {
	rec        *Recorder
	sum        *Summary
	qt         *trace.QueryTrace
	live       *LiveQuery // the adopted registry entry
	startAlloc uint64
	done       atomic.Bool
}

// ID returns the flight's query ID.
func (f *Flight) ID() uint64 { return f.sum.ID }

// SetQueueWait records admission-control queue wait.
func (f *Flight) SetQueueWait(d time.Duration) { f.sum.QueueWaitNS = int64(d) }

// AddRowsOut accumulates result rows delivered to the client.
func (f *Flight) AddRowsOut(n int64) { f.sum.RowsOut += n }

// AttachTrace hands the flight the statement's span tree; Finish folds it
// into the per-operator breakdown and the scan-derived summary columns.
// The root span is also published to the statement's live-registry entry,
// which is what lets system.active_queries sample rows/bytes progress from
// the executing operators' atomic counters.
func (f *Flight) AttachTrace(qt *trace.QueryTrace) {
	f.qt = qt
	if qt.Root != nil {
		f.live.root.Store(qt.Root)
	}
}

// Finish seals and publishes the summary (first call wins). It finishes
// the attached query trace with the same outcome, so callers that hold
// both need no ordering discipline — QueryTrace.Finish is itself
// first-call-wins.
func (f *Flight) Finish(err error) {
	if !f.done.CompareAndSwap(false, true) {
		return
	}
	if f.qt != nil {
		f.qt.Finish(err)
	}
	f.sum.LatencyNS = int64(time.Since(f.sum.Start))
	if end := allocBytes(); end > f.startAlloc {
		f.sum.AllocBytes = int64(end - f.startAlloc)
	}
	if err != nil {
		f.sum.Error = err.Error()
	}
	if f.qt != nil && f.qt.Root != nil {
		foldSpans(f.sum, f.qt.Root.Stat(), 0)
	}
	f.rec.record(f.sum)
	// The statement is no longer killable; drop it from the live registry
	// and release its cancel function (freeing the context's resources — a
	// no-op if KILL or the server already canceled).
	f.rec.Unregister(f.live)
	if f.live.cancel != nil {
		f.live.cancel()
	}
}

// foldSpans flattens the span snapshot tree into preorder OpStat rows and
// lifts the scan- and model-level aggregates into the summary columns.
func foldSpans(sum *Summary, s trace.SpanStat, depth int) {
	op := OpStat{
		Seq:      len(sum.Ops),
		Depth:    depth,
		Op:       s.Name,
		WallNS:   s.WallNS,
		Rows:     s.Rows,
		Batches:  s.Batches,
		Counters: s.Counters,
	}
	for _, c := range s.Counters {
		switch c.Name {
		case "pruned_blocks":
			sum.BlocksPruned += c.Value
		case "scanned_bytes":
			sum.BytesScanned += c.Value
		}
	}
	if strings.HasPrefix(s.Name, "Scan ") {
		sum.RowsIn += s.Rows
	}
	if v := s.Labels["cache"]; v != "" {
		sum.Cache = v
	}
	if v := s.Labels["batched"]; v != "" {
		sum.Batched = v
	}
	if v := s.Labels["device"]; v != "" {
		sum.Device = v
	}
	sum.Ops = append(sum.Ops, op)
	for _, c := range s.Children {
		foldSpans(sum, c, depth+1)
	}
}

// truncate bounds a statement text to maxSQLLen bytes, copied so that a
// retained record does not keep the whole statement alive.
func truncate(text string) string {
	if len(text) > maxSQLLen {
		return strings.Clone(text[:maxSQLLen])
	}
	return text
}

// allocBytes reads cumulative process heap allocation. /gc/heap/allocs:bytes
// is maintained without a stop-the-world, unlike runtime.ReadMemStats, so
// sampling it twice per statement is cheap.
func allocBytes() uint64 {
	s := []rtmetrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	rtmetrics.Read(s)
	if s[0].Value.Kind() == rtmetrics.KindUint64 {
		return s[0].Value.Uint64()
	}
	return 0
}

// ---- operator wrapper ----

// recordedOp finalizes the flight when the statement's operator tree
// finishes: end of stream, first error, or Close, whichever the caller
// reaches first. It also carries the query ID to the wire layer via the
// QueryID method, so clients can correlate their result set with
// system.queries.
type recordedOp struct {
	child exec.Operator
	fl    *Flight
	err   error
}

// Wrap decorates op so its lifecycle seals fl.
func Wrap(op exec.Operator, fl *Flight) exec.Operator {
	return &recordedOp{child: op, fl: fl}
}

func (r *recordedOp) Schema() *types.Schema { return r.child.Schema() }

func (r *recordedOp) Open() error {
	err := r.child.Open()
	if err != nil {
		// Callers do not Close after a failed Open; seal here.
		r.err = err
		r.fl.Finish(err)
	}
	return err
}

func (r *recordedOp) Next() (*vector.Batch, error) {
	b, err := r.child.Next()
	if err != nil {
		r.err = err
	} else if b != nil {
		r.fl.AddRowsOut(int64(b.Len()))
	}
	return b, err
}

func (r *recordedOp) Close() error {
	cerr := r.child.Close()
	if r.err == nil {
		r.err = cerr
	}
	// Fold after the child tree is closed: Traced.Close is what transfers
	// pruned_blocks / scanned_bytes from the operators into their spans.
	r.fl.Finish(r.err)
	return cerr
}

// QueryID exposes the flight-recorder ID for wire propagation.
func (r *recordedOp) QueryID() uint64 { return r.fl.ID() }

// ---- context plumbing ----

type ctxKey int

const (
	queueWaitKey ctxKey = iota
	liveKey
)

// WithQueueWait records the admission-control wait the server charged this
// statement before handing it to the engine.
func WithQueueWait(ctx context.Context, d time.Duration) context.Context {
	if d <= 0 {
		return ctx
	}
	return context.WithValue(ctx, queueWaitKey, d)
}

// QueueWaitFrom returns the queue wait carried by ctx (0 if none).
func QueueWaitFrom(ctx context.Context) time.Duration {
	if ctx == nil {
		return 0
	}
	d, _ := ctx.Value(queueWaitKey).(time.Duration)
	return d
}

// WithLive carries a statement's live-registry entry from the admission
// layer (which registers before queueing, so even a statement that never
// reaches the engine is visible and killable) to the engine's flight
// record, which adopts it via BeginFor.
func WithLive(ctx context.Context, q *LiveQuery) context.Context {
	return context.WithValue(ctx, liveKey, q)
}

// LiveFrom returns the live entry carried by ctx (nil if none).
func LiveFrom(ctx context.Context) *LiveQuery {
	if ctx == nil {
		return nil
	}
	q, _ := ctx.Value(liveKey).(*LiveQuery)
	return q
}
