// Package infersched is the in-engine batched inference scheduler: an
// "inference server inside the database". Every ModelJoin operator submits
// its gathered feature batches here — there is no other way to the device.
// Batches that target the same built model artifact — typically from
// *different* queries, deduplicated onto one artifact by the cross-query
// model cache — are coalesced into a single packed forward pass, and the
// prediction rows are scattered back to each submitter.
//
// Why this exists: under concurrent serving traffic every query otherwise
// runs its own small Sgemm over its own ≤vectorsize feature rows, so the
// BLAS pool drowns in small matmuls and the (simulated) GPU pays per-query
// host↔device transfers and kernel launches. Coalescing amortizes exactly
// those fixed costs — the gap "Serving Deep Learning Model in Relational
// Databases" identifies between RDBMS execution and dedicated inference
// servers.
//
// Scheduling is flat combining (Hendler, Incze, Shavit and Tzafrir, SPAA
// 2010); the package starts no goroutine and sets no timer:
//
//   - Submit appends its request to the (model, device) queue and waits
//     until the request is done, its submitter is handed a pass to run, or
//     its context ends.
//   - A device runs at most MaxInFlight passes at once. A submitter that
//     finds a slot free runs its own request at once. Otherwise the request
//     pends, and the submitter that ends a pass hands its slot on: it
//     claims the pending prefix of the device's longest-waiting queue, up to
//     MaxBatchRows rows and possibly other statements' requests, and wakes
//     the submitter of the prefix's first request, which runs it as one
//     pass on its own goroutine and completes every waiter. Requests
//     coalesce exactly while the device is busy, and a pass wakes only the
//     goroutine that runs it.
//   - A queue leaves the map when nothing is pending or running on it.
//
// Cancellation honors buffer ownership: a request's staging/prediction
// buffers belong to the submitter until its request is claimed for a pass,
// after which they belong to that pass until it completes. A canceled
// submitter whose request was claimed therefore waits for the pass —
// returning early would let the operator recycle buffers mid-pack — and
// then returns the context error; one that was handed the pass runs it
// first.
package infersched

import (
	"context"
	"sync"
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

const (
	// MaxBatchRows caps the rows a combiner claims for one pass; the first
	// request of a pass is taken whole, whatever its size.
	MaxBatchRows = 8192
	// MaxInFlight caps the passes running at once on one device.
	MaxInFlight = 2

	// ringSize is the per-batch stats ring capacity backing
	// system.inference_batches.
	ringSize = 512
)

// Scheduler coalesces inference requests per built model artifact.
type Scheduler struct {
	stats *Stats

	// mu guards the queue map, every queue, the per-device pass counts and
	// every request's claimed and batch fields.
	mu      sync.Mutex
	queues  map[Runner]*queue
	running map[string]int // passes in flight per device, ≤ MaxInFlight

	bufPool sync.Pool // []float32 pack/scatter buffers
}

// New creates a scheduler and registers its collectors on reg.
func New(reg *metrics.Registry) *Scheduler {
	s := &Scheduler{
		stats:   newStats(reg),
		queues:  make(map[Runner]*queue),
		running: make(map[string]int),
	}
	s.registerQueueGauges(reg)
	return s
}

type request struct {
	rows    int
	staging []float32 // rows×inDim, read by the pass while claimed
	preds   []float32 // rows×outDim, written by the pass while claimed
	enq     time.Time

	claimed bool       // a pass owns the buffers
	batch   []*request // the claimed pass this request heads, for its submitter to run
	// wake carries the request's one signal: batch is set, or the pass
	// holding the request has completed. One signal, so the buffer of one
	// makes every send non-blocking.
	wake chan struct{}

	// Written by run before the signal: the pass's error, the wait this
	// request paid before its pass started and its rows-proportional share
	// of the packed run (so per-query tracing still reconciles under
	// coalescing).
	err       error
	wait      time.Duration
	runShare  time.Duration
	busyShare time.Duration
}

// Result reports what one Submit paid: Wait is the time from submission to
// the start of its pass (queue and device gate), Run the request's pro-rata
// share of the packed device pass and Busy its share of that pass's kernel
// busy time.
type Result struct {
	Wait time.Duration
	Run  time.Duration
	Busy time.Duration
}

// queue is one (model, device) queue; all fields are guarded by
// Scheduler.mu.
type queue struct {
	label   Label
	runner  Runner
	pending []*request
	running int // passes in flight

	// rolling per-queue totals for StatsText.
	batches int64
	rows    int64
}

// Submit hands one gathered feature batch to the scheduler and blocks until
// the pass containing it completes (or ctx cancels it first). The caller
// may run that pass itself, on its own goroutine, together with other
// callers' pending requests.
//
// staging must hold rows×r.InputDim() feature values; preds must have room
// for rows×r.OutputDim() and is fully written on success. Both buffers must
// stay untouched by the caller until Submit returns.
func (s *Scheduler) Submit(ctx context.Context, label Label, r Runner, rows int, staging, preds []float32) (Result, error) {
	if rows == 0 {
		return Result{}, nil
	}
	req := &request{
		rows:    rows,
		staging: staging,
		preds:   preds,
		enq:     time.Now(),
		wake:    make(chan struct{}, 1),
	}
	q := s.enqueue(label, r, req)
	var cancel <-chan struct{}
	if ctx != nil {
		cancel = ctx.Done()
	}
	select {
	case <-req.wake:
	case <-cancel:
		if s.withdraw(q, req) {
			return Result{}, ctx.Err()
		}
		// Already claimed: the pass owns the buffers until it completes.
		<-req.wake
	}
	if req.batch != nil {
		s.handOff(q, s.run(q, req.batch))
	}
	if ctx != nil && ctx.Err() != nil {
		return Result{}, ctx.Err()
	}
	if req.err != nil {
		return Result{}, req.err
	}
	return Result{Wait: req.wait, Run: req.runShare, Busy: req.busyShare}, nil
}

// enqueue resolves (or creates) the runner's queue and appends req; on a
// device with a free slot, req's submitter is handed its own pass at once.
func (s *Scheduler) enqueue(label Label, r Runner, req *request) *queue {
	s.mu.Lock()
	defer s.mu.Unlock()
	q := s.queues[r]
	if q == nil {
		q = &queue{label: label, runner: r}
		s.queues[r] = q
	}
	q.pending = append(q.pending, req)
	if s.running[label.Device] < MaxInFlight {
		s.running[label.Device]++
		s.dispatch(q)
	}
	return q
}

// dispatch claims q's pending prefix, up to MaxBatchRows rows with the first
// request taken whole, and hands it to the first request's submitter to
// run. The caller holds s.mu and one of the device's slots for the pass.
func (s *Scheduler) dispatch(q *queue) {
	n, rows := 0, 0
	for _, r := range q.pending {
		if n > 0 && rows+r.rows > MaxBatchRows {
			break
		}
		r.claimed = true
		rows += r.rows
		n++
	}
	head := q.pending[0]
	head.batch = q.pending[:n:n]
	q.pending = q.pending[n:]
	q.running++
	head.wake <- struct{}{}
}

// handOff ends a pass of q over rows: its device slot goes to the device's
// queue whose first pending request has waited longest, or is freed when
// nothing pends.
func (s *Scheduler) handOff(q *queue, rows int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	q.running--
	q.batches++
	q.rows += int64(rows)
	var next *queue
	for _, o := range s.queues {
		if o.label.Device == q.label.Device && len(o.pending) > 0 &&
			(next == nil || o.pending[0].enq.Before(next.pending[0].enq)) {
			next = o
		}
	}
	if next != nil {
		s.dispatch(next)
	} else {
		s.running[q.label.Device]--
	}
	s.retire(q)
}

// withdraw removes a canceled request that no pass has claimed and reports
// whether it did; a claimed request stays with its pass.
func (s *Scheduler) withdraw(q *queue, req *request) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if req.claimed {
		return false
	}
	for i, r := range q.pending {
		if r == req {
			q.pending = append(q.pending[:i], q.pending[i+1:]...)
			break
		}
	}
	s.retire(q)
	return true
}

// retire drops q from the map once nothing is pending or running on it.
// Every pending request's queue is in the map, so a later submit for the
// same runner starts a fresh queue. Called with s.mu held.
func (s *Scheduler) retire(q *queue) {
	if len(q.pending) == 0 && q.running == 0 {
		delete(s.queues, q.runner)
	}
}

// run packs, runs and scatters one claimed batch, signals its other waiters
// (batch[0] is the caller's own request) and returns its row count.
func (s *Scheduler) run(q *queue, batch []*request) int {
	start := time.Now()
	var maxWait time.Duration
	rows := 0
	for _, r := range batch {
		r.wait = start.Sub(r.enq)
		maxWait = max(maxWait, r.wait)
		rows += r.rows
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
		staging := s.getBuf(rows * in)
		preds := s.getBuf(rows * out)
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
		s.putBuf(staging)
		s.putBuf(preds)
	}
	runDur := time.Since(start)
	// Record before releasing the waiters, so a statement that has returned
	// always finds its batches in the stats (system.inference_batches).
	s.stats.recordBatch(q.label, len(batch), rows, maxWait, runDur)
	for i, r := range batch {
		r.runShare = runDur * time.Duration(r.rows) / time.Duration(rows)
		r.busyShare = busy * time.Duration(r.rows) / time.Duration(rows)
		r.err = err
		if i > 0 {
			r.wake <- struct{}{}
		}
	}
	return rows
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
	defer s.mu.Unlock()
	out := make([]queueState, 0, len(s.queues))
	for _, q := range s.queues {
		out = append(out, queueState{
			label:    q.label,
			depth:    len(q.pending),
			inflight: q.running,
			batches:  q.batches,
			rows:     q.rows,
		})
	}
	return out
}
