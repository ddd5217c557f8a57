// Package infersched is the in-engine batched inference scheduler: an
// "inference server inside the database". Every ModelJoin operator submits
// its gathered feature batches here — there is no other way to the device;
// the scheduler coalesces batches that target the same built
// model artifact — typically batches from *different* queries, deduplicated
// onto one artifact by the cross-query model cache — into a single packed
// forward pass, then scatters the prediction rows back to each waiting
// submitter.
//
// Why this exists: under concurrent serving traffic every query otherwise
// runs its own small Sgemm over its own ≤vectorsize feature rows, so the
// BLAS pool drowns in small matmuls and the (simulated) GPU pays per-query
// host↔device transfers and kernel launches. Coalescing amortizes exactly
// those fixed costs — the gap "Serving Deep Learning Model in Relational
// Databases" identifies between RDBMS execution and dedicated inference
// servers.
//
// Scheduling policy (continuous batching, the policy inference servers
// converged on):
//
//   - A request arriving at an idle (model, device) queue launches
//     immediately — a single-stream client never pays a coalesce wait.
//   - While a batch is in flight, newly arriving requests pend; they
//     launch as the next super-batch when the in-flight batch completes,
//     when the pending rows reach MaxBatchRows, or when the oldest pending
//     request has waited MaxWait, whichever comes first.
//   - Per-device concurrency is capped by MaxInFlight; a queue that decides
//     to launch blocks on the device gate, during which later arrivals keep
//     coalescing onto it.
//
// Cancellation honors buffer ownership: a request's staging/prediction
// buffers belong to the submitter until the dispatcher claims them for a
// batch (an atomic state transition), after which they belong to the
// scheduler until the batch completes. A canceled submitter that lost the
// claim race therefore blocks until its batch finishes — returning early
// would let the operator recycle buffers mid-pack.
package infersched

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"indbml/internal/metrics"
)

// Runner executes one packed forward pass: rows feature rows (row-major,
// rows×InputDim) in staging, predictions (rows×OutputDim) written to preds.
// It reports the pass's kernel busy time summed over the BLAS workers.
// The engine's built model artifact implements this; requests are queued by
// Runner identity, so artifact-cache deduplication is what makes requests
// from different queries coalescible.
type Runner interface {
	RunPacked(rows int, staging, preds []float32) (busy time.Duration, err error)
	InputDim() int
	OutputDim() int
}

// Label names a queue for observability (system.inference_batches, STATUS).
type Label struct {
	Model  string
	Device string
}

// Config tunes the scheduler. The zero value selects the defaults.
type Config struct {
	// MaxWait bounds how long a pending request may sit in a coalesce
	// window before its batch launches regardless of in-flight state.
	// Default 500µs.
	MaxWait time.Duration
	// MaxBatchRows caps the rows packed into one super-batch. Default 8192.
	MaxBatchRows int
	// MaxInFlight caps concurrently executing batches per device. Default 2.
	MaxInFlight int
}

const (
	defaultMaxWait      = 500 * time.Microsecond
	defaultMaxBatchRows = 8192
	defaultMaxInFlight  = 2

	// ringSize is the per-batch stats ring capacity backing
	// system.inference_batches.
	ringSize = 512

	// idleExit is how long an empty queue's dispatcher lingers before the
	// goroutine exits and the queue is dropped from the map; model eviction
	// and rebuild churn therefore cannot grow the map without bound.
	idleExit = 5 * time.Second
)

func (c Config) withDefaults() Config {
	if c.MaxWait <= 0 {
		c.MaxWait = defaultMaxWait
	}
	if c.MaxBatchRows <= 0 {
		c.MaxBatchRows = defaultMaxBatchRows
	}
	if c.MaxInFlight <= 0 {
		c.MaxInFlight = defaultMaxInFlight
	}
	return c
}

// Scheduler coalesces inference requests per built model artifact. Its
// Config is the one scheduling policy: every request follows it.
type Scheduler struct {
	cfg   Config
	stats *Stats

	mu      sync.Mutex
	queues  map[Runner]*queue
	devGate map[string]chan struct{} // per-device in-flight cap

	bufPool sync.Pool // []float32 pack/scatter buffers
}

// New creates a scheduler and registers its collectors on reg.
func New(cfg Config, reg *metrics.Registry) *Scheduler {
	cfg = cfg.withDefaults()
	s := &Scheduler{
		cfg:     cfg,
		stats:   newStats(reg),
		queues:  make(map[Runner]*queue),
		devGate: make(map[string]chan struct{}),
	}
	s.registerQueueGauges(reg)
	return s
}

// request states: the atomic arbiter between the dispatcher's claim and
// the submitter's cancellation.
const (
	reqWaiting  = 0 // pending; buffers owned by the submitter
	reqClaimed  = 1 // packed into a launching batch; buffers owned by the scheduler
	reqCanceled = 2 // canceled before any claim; dispatcher must skip it
)

type request struct {
	rows    int
	staging []float32 // rows×inDim, read by the dispatcher while claimed
	preds   []float32 // rows×outDim, written by the dispatcher while claimed
	state   atomic.Int32
	done    chan struct{} // closed after preds are final and err is set
	err     error         // written before done closes
	enq     time.Time

	// Attribution, written by runBatch before done closes: the coalesce
	// wait this request paid and its rows-proportional share of the packed
	// run (so per-query tracing still reconciles under coalescing).
	wait      time.Duration
	runShare  time.Duration
	busyShare time.Duration
}

// Result reports what one Submit paid: Wait is the coalesce-window wait
// before its batch launched, Run the request's pro-rata share of the packed
// device pass and Busy its share of that pass's kernel busy time.
type Result struct {
	Wait time.Duration
	Run  time.Duration
	Busy time.Duration
}

type queue struct {
	s      *Scheduler
	label  Label
	runner Runner
	gate   chan struct{} // the device's shared in-flight gate

	mu          sync.Mutex
	pending     []*request
	pendingRows int
	inflight    int
	dead        bool // dispatcher exited; the queue is out of the map

	// rolling per-queue totals for StatusText.
	batches atomic.Int64
	rows    atomic.Int64

	kick chan struct{} // buffered(1) wake-up for the dispatcher
}

// Submit hands one gathered feature batch to the scheduler and blocks until
// the super-batch containing it completes (or ctx cancels it first).
//
// staging must hold rows×r.InputDim() feature values; preds must have room
// for rows×r.OutputDim() and is fully written on success. Both buffers must
// stay untouched by the caller until Submit returns.
//
// If ctx carries a SlotYielder (see WithYielder), the submitter's admission
// slot is released for the whole wait and re-acquired before returning, so
// a query parked in a coalesce window never holds an execution slot
// hostage.
func (s *Scheduler) Submit(ctx context.Context, label Label, r Runner, rows int, staging, preds []float32) (Result, error) {
	if rows == 0 {
		return Result{}, nil
	}
	req := &request{
		rows:    rows,
		staging: staging,
		preds:   preds,
		done:    make(chan struct{}),
		enq:     time.Now(),
	}
	q := s.enqueue(label, r, req)

	y := YielderFrom(ctx)
	if y != nil {
		y.Yield()
	}
	err := waitDone(ctx, q, req)
	if y != nil {
		if uerr := y.Unyield(ctx); uerr != nil && err == nil {
			err = uerr
		}
	}
	if err != nil {
		return Result{}, err
	}
	// req.wait/runShare/busyShare were written by runBatch before done closed.
	return Result{Wait: req.wait, Run: req.runShare, Busy: req.busyShare}, nil
}

func waitDone(ctx context.Context, q *queue, req *request) error {
	var cancel <-chan struct{}
	if ctx != nil {
		cancel = ctx.Done()
	}
	select {
	case <-req.done:
		return req.err
	case <-cancel:
	}
	if req.state.CompareAndSwap(reqWaiting, reqCanceled) {
		// Won the race against the dispatcher's claim: the request never
		// joins a batch, so drop it from the pending list and leave.
		q.mu.Lock()
		for i, r := range q.pending {
			if r == req {
				q.pending = append(q.pending[:i], q.pending[i+1:]...)
				q.pendingRows -= r.rows
				break
			}
		}
		q.mu.Unlock()
		return ctx.Err()
	}
	// Already claimed: the scheduler owns the buffers until the batch
	// completes. Wait it out, then report the cancellation.
	<-req.done
	return ctx.Err()
}

// enqueue resolves (or creates) the runner's queue and appends req. Queues
// whose dispatcher has exited are dead — their map slot is gone — so the
// lookup retries until it lands on a live queue.
func (s *Scheduler) enqueue(label Label, r Runner, req *request) *queue {
	for {
		s.mu.Lock()
		q := s.queues[r]
		if q == nil {
			gate := s.devGate[label.Device]
			if gate == nil {
				gate = make(chan struct{}, s.cfg.MaxInFlight)
				s.devGate[label.Device] = gate
			}
			q = &queue{
				s:      s,
				label:  label,
				runner: r,
				gate:   gate,
				kick:   make(chan struct{}, 1),
			}
			s.queues[r] = q
			go q.run()
		}
		s.mu.Unlock()

		q.mu.Lock()
		if q.dead {
			q.mu.Unlock()
			continue
		}
		q.pending = append(q.pending, req)
		q.pendingRows += req.rows
		q.mu.Unlock()
		q.kickNow()
		return q
	}
}

func (q *queue) kickNow() {
	select {
	case q.kick <- struct{}{}:
	default:
	}
}

// run is the queue's dispatcher goroutine: it applies the continuous-
// batching launch policy until the queue has been idle for idleExit, then
// removes the queue from the scheduler and exits.
func (q *queue) run() {
	for {
		q.mu.Lock()
		if len(q.pending) == 0 {
			q.mu.Unlock()
			select {
			case <-q.kick:
				continue
			case <-time.After(idleExit):
			}
			// Try to retire: take the scheduler lock first (lock order:
			// Scheduler.mu then queue.mu, same as enqueue) and re-check.
			q.s.mu.Lock()
			q.mu.Lock()
			if len(q.pending) == 0 && q.inflight == 0 {
				q.dead = true
				delete(q.s.queues, q.runner)
				q.mu.Unlock()
				q.s.mu.Unlock()
				return
			}
			q.mu.Unlock()
			q.s.mu.Unlock()
			continue
		}
		oldest := q.pending[0]
		deadline := oldest.enq.Add(q.s.cfg.MaxWait)
		now := time.Now()
		// Launch immediately whenever the device gate has idle capacity:
		// with a free in-flight slot there is nothing for later arrivals to
		// coalesce behind, so making the oldest request sit out its full
		// MaxWait only adds latency (the 4-client regression — the gate
		// [MaxInFlight=2] was never saturated, yet every request paid the
		// coalesce window). Under saturation (8+ clients) the gate is full
		// and the original coalesce-while-busy policy is preserved.
		launch := q.inflight == 0 ||
			len(q.gate) < cap(q.gate) ||
			q.pendingRows >= q.s.cfg.MaxBatchRows ||
			!now.Before(deadline)
		if !launch {
			q.mu.Unlock()
			t := time.NewTimer(deadline.Sub(now))
			select {
			case <-q.kick:
			case <-t.C:
			}
			t.Stop()
			continue
		}
		q.mu.Unlock()
		q.launch()
	}
}

// launch acquires the device gate, claims the pending prefix up to the row
// budget and runs it as one batch on its own goroutine. Acquiring the gate
// *before* claiming is deliberate: while this queue waits for device
// capacity, new arrivals keep coalescing and canceled waiters can still
// leave.
func (q *queue) launch() {
	q.gate <- struct{}{}

	q.mu.Lock()
	var batch []*request
	rows := 0
	taken := 0
	for _, r := range q.pending {
		if len(batch) > 0 && rows+r.rows > q.s.cfg.MaxBatchRows {
			break
		}
		taken++
		q.pendingRows -= r.rows
		if r.state.CompareAndSwap(reqWaiting, reqClaimed) {
			batch = append(batch, r)
			rows += r.rows
		}
		// A lost CAS means the waiter canceled between our scan and now; it
		// removes itself from pending only when it wins the CAS, so a
		// request we scanned in state reqCanceled is ours to drop.
	}
	q.pending = q.pending[taken:]
	if len(batch) == 0 {
		q.mu.Unlock()
		<-q.gate
		return
	}
	q.inflight++
	q.mu.Unlock()
	go q.runBatch(batch, rows)
}

// runBatch packs, runs and scatters one claimed batch, completes its
// waiters, then releases the device gate and wakes the dispatcher.
func (q *queue) runBatch(batch []*request, rows int) {
	start := time.Now()
	var maxWait time.Duration
	for _, r := range batch {
		if w := start.Sub(r.enq); w > maxWait {
			maxWait = w
		}
	}
	in, out := q.runner.InputDim(), q.runner.OutputDim()
	var busy time.Duration
	var err error
	if len(batch) == 1 {
		// Nothing to coalesce: run on the submitter's buffers directly so
		// the single-stream path pays no extra copies.
		r := batch[0]
		busy, err = q.runner.RunPacked(r.rows, r.staging, r.preds)
	} else {
		staging := q.s.getBuf(rows * in)
		preds := q.s.getBuf(rows * out)
		off := 0
		for _, r := range batch {
			copy(staging[off*in:(off+r.rows)*in], r.staging[:r.rows*in])
			off += r.rows
		}
		busy, err = q.runner.RunPacked(rows, staging, preds)
		if err == nil {
			off = 0
			for _, r := range batch {
				copy(r.preds[:r.rows*out], preds[off*out:(off+r.rows)*out])
				off += r.rows
			}
		}
		q.s.putBuf(staging)
		q.s.putBuf(preds)
	}
	runDur := time.Since(start)
	// Record before releasing the waiters, so a statement that has returned
	// always finds its batches in the stats (system.inference_batches).
	q.batches.Add(1)
	q.rows.Add(int64(rows))
	q.s.stats.recordBatch(q.label, len(batch), rows, maxWait, runDur)
	for _, r := range batch {
		r.wait = start.Sub(r.enq)
		r.runShare = runDur * time.Duration(r.rows) / time.Duration(rows)
		r.busyShare = busy * time.Duration(r.rows) / time.Duration(rows)
		r.err = err
		close(r.done)
	}

	<-q.gate
	q.mu.Lock()
	q.inflight--
	q.mu.Unlock()
	q.kickNow()
}

func (s *Scheduler) getBuf(n int) []float32 {
	if v := s.bufPool.Get(); v != nil {
		if b := v.([]float32); cap(b) >= n {
			return b[:n]
		}
	}
	return make([]float32, n)
}

func (s *Scheduler) putBuf(b []float32) {
	s.bufPool.Put(b[:0]) //nolint:staticcheck // slice headers are small
}

// queueState is one queue's live snapshot for StatusText / metrics.
type queueState struct {
	label    Label
	depth    int
	inflight int
	batches  int64
	rows     int64
}

func (s *Scheduler) queueStates() []queueState {
	s.mu.Lock()
	qs := make([]*queue, 0, len(s.queues))
	for _, q := range s.queues {
		qs = append(qs, q)
	}
	s.mu.Unlock()
	out := make([]queueState, 0, len(qs))
	for _, q := range qs {
		q.mu.Lock()
		st := queueState{
			label:    q.label,
			depth:    len(q.pending),
			inflight: q.inflight,
			batches:  q.batches.Load(),
			rows:     q.rows.Load(),
		}
		q.mu.Unlock()
		out = append(out, st)
	}
	return out
}
