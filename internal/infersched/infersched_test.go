package infersched

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"indbml/internal/metrics"
)

// fakeRunner records every packed call so tests can assert coalescing. The
// "model" computes preds[i*out+j] = sum(features of row i) + j, which makes
// scatter mistakes (wrong rows to the wrong submitter) visible in values.
type fakeRunner struct {
	in, out int
	delay   time.Duration
	fail    error

	mu      sync.Mutex
	calls   []int // rows per RunPacked call
	running atomic.Int32
	peak    atomic.Int32
}

func (f *fakeRunner) InputDim() int  { return f.in }
func (f *fakeRunner) OutputDim() int { return f.out }

// RunPacked reports 1µs of kernel busy time per row, so a request's pro-rata
// share is checkable.
func (f *fakeRunner) RunPacked(rows int, staging, preds []float32) (time.Duration, error) {
	n := f.running.Add(1)
	for {
		p := f.peak.Load()
		if n <= p || f.peak.CompareAndSwap(p, n) {
			break
		}
	}
	defer f.running.Add(-1)
	f.mu.Lock()
	f.calls = append(f.calls, rows)
	f.mu.Unlock()
	if f.delay > 0 {
		time.Sleep(f.delay)
	}
	if f.fail != nil {
		return 0, f.fail
	}
	for r := 0; r < rows; r++ {
		var sum float32
		for c := 0; c < f.in; c++ {
			sum += staging[r*f.in+c]
		}
		for c := 0; c < f.out; c++ {
			preds[r*f.out+c] = sum + float32(c)
		}
	}
	return time.Duration(rows) * time.Microsecond, nil
}

func (f *fakeRunner) callCount() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.calls)
}

func makeBatch(rows, in int, seed float32) []float32 {
	b := make([]float32, rows*in)
	for i := range b {
		b[i] = seed + float32(i%7)
	}
	return b
}

func wantPreds(t *testing.T, r *fakeRunner, staging, preds []float32, rows int) {
	t.Helper()
	for row := 0; row < rows; row++ {
		var sum float32
		for c := 0; c < r.in; c++ {
			sum += staging[row*r.in+c]
		}
		for c := 0; c < r.out; c++ {
			if got, want := preds[row*r.out+c], sum+float32(c); got != want {
				t.Fatalf("row %d col %d: got %v want %v", row, c, got, want)
			}
		}
	}
}

// blocker is a Runner whose passes park inside RunPacked, after signalling
// entered, until release is closed.
type blocker struct {
	entered chan<- struct{}
	release <-chan struct{}
}

func (b *blocker) InputDim() int  { return 1 }
func (b *blocker) OutputDim() int { return 1 }
func (b *blocker) RunPacked(rows int, staging, preds []float32) (time.Duration, error) {
	b.entered <- struct{}{}
	<-b.release
	return 0, nil
}

// fillGate occupies every in-flight slot of device with a parked pass, one
// blocker queue per slot, and returns the function that lets those passes
// finish and waits for their submitters. Until then every request for that
// device pends.
func fillGate(t *testing.T, s *Scheduler, device string) (release func()) {
	t.Helper()
	entered := make(chan struct{}, MaxInFlight)
	rel := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < MaxInFlight; i++ {
		b := &blocker{entered: entered, release: rel}
		lbl := Label{Model: fmt.Sprintf("blocker%d", i), Device: device}
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := s.Submit(context.Background(), lbl, b, 1, make([]float32, 1), make([]float32, 1)); err != nil {
				t.Error(err)
			}
		}()
	}
	for i := 0; i < MaxInFlight; i++ {
		<-entered
	}
	return func() {
		close(rel)
		wg.Wait()
	}
}

// waitDepth waits until n requests pend across s's queues.
func waitDepth(t *testing.T, s *Scheduler, n int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		depth := 0
		for _, q := range s.queueStates() {
			depth += q.depth
		}
		if depth == n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("queue depth %d, want %d", depth, n)
		}
		time.Sleep(50 * time.Microsecond)
	}
}

// submitAsync submits rows from its own goroutine and delivers the outcome.
func submitAsync(ctx context.Context, s *Scheduler, lbl Label, r Runner, rows int, staging, preds []float32) <-chan error {
	errc := make(chan error, 1)
	go func() {
		_, err := s.Submit(ctx, lbl, r, rows, staging, preds)
		errc <- err
	}()
	return errc
}

func TestSingleSubmitNoCoalesceWait(t *testing.T) {
	s := New(metrics.NewRegistry())
	r := &fakeRunner{in: 4, out: 1}
	staging := makeBatch(8, 4, 2)
	preds := make([]float32, 8)
	res, err := s.Submit(context.Background(), Label{"m", "cpu"}, r, 8, staging, preds)
	if err != nil {
		t.Fatal(err)
	}
	// Idle device → the submitter runs its own pass at once.
	if res.Wait > 20*time.Millisecond {
		t.Fatalf("single-stream submit waited %v", res.Wait)
	}
	wantPreds(t, r, staging, preds, 8)
	if got := r.callCount(); got != 1 {
		t.Fatalf("runner called %d times, want 1", got)
	}
}

// TestConcurrentSubmitsCoalesce: with the device gate full, requests pend
// and leave as one super-batch when a slot frees; each keeps its own rows,
// its pro-rata share of the pass and a wait that covers the gate wait. While
// they pend, the queue is live in STATUS and the BATCHER report.
func TestConcurrentSubmitsCoalesce(t *testing.T) {
	s := New(metrics.NewRegistry())
	r := &fakeRunner{in: 2, out: 2}
	lbl := Label{"m", "gpu"}
	release := fillGate(t, s, "gpu")

	const n = 6
	stagings := make([][]float32, n)
	predss := make([][]float32, n)
	results := make([]Result, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		stagings[i] = makeBatch(3, 2, float32(10*i))
		predss[i] = make([]float32, 3*2)
		wg.Add(1)
		go func() {
			defer wg.Done()
			var err error
			if results[i], err = s.Submit(context.Background(), lbl, r, 3, stagings[i], predss[i]); err != nil {
				t.Error(err)
			}
		}()
	}
	waitDepth(t, s, n)
	if line := s.StatusLine(); !strings.Contains(line, "queues=3 depth=6 inflight=2 ") {
		t.Fatalf("StatusLine while pending: %s", line)
	}
	if txt := s.StatsText(); !strings.Contains(txt, "queue model=m device=gpu depth=6 inflight=0 batches=0") {
		t.Fatalf("StatsText while pending:\n%s", txt)
	}
	// Hold the gate long enough that the wait shows in every Result.
	pending := time.Now()
	time.Sleep(2 * time.Millisecond)
	held := time.Since(pending)
	release()
	wg.Wait()

	for i := 0; i < n; i++ {
		wantPreds(t, r, stagings[i], predss[i], 3)
	}
	if got := r.callCount(); got != 1 {
		t.Fatalf("runner called %d times for %d pending submits, want 1 super-batch", got, n)
	}
	var pass BatchStat
	for _, b := range s.BatchSnapshot() {
		if b.Model == "m" {
			pass = b
		}
	}
	if pass.Requests != n || pass.Rows != 3*n || pass.WaitNS < int64(held) {
		t.Fatalf("batch record %+v, want %d requests, %d rows, wait ≥ %v", pass, n, 3*n, held)
	}
	var runSum time.Duration
	for i, res := range results {
		// A 3-row request's share of the runner's 1µs-per-row busy time is
		// 3µs; its wait covers the time the gate was full.
		if res.Busy != 3*time.Microsecond || res.Wait < held {
			t.Errorf("submit %d: %+v, want busy 3µs and wait ≥ %v", i, res, held)
		}
		runSum += res.Run
	}
	if runSum > time.Duration(pass.RunNS) || runSum < time.Duration(pass.RunNS)-n {
		t.Errorf("run shares sum to %v, pass ran %v", runSum, time.Duration(pass.RunNS))
	}
	if st := s.stats; st.coalesced.Value() != 1 || st.requests.Value() != n+MaxInFlight {
		t.Fatalf("stats coalesced=%d requests=%d, want 1 and %d", st.coalesced.Value(), st.requests.Value(), n+MaxInFlight)
	}
}

func TestMaxBatchRowsSplitsLaunch(t *testing.T) {
	s := New(metrics.NewRegistry())
	r := &fakeRunner{in: 1, out: 1}
	lbl := Label{"m", "cpu"}
	release := fillGate(t, s, "cpu")
	// Four pending 3000-row requests hold 12000 rows, more than one pass
	// may claim: they must leave as two 6000-row super-batches.
	const rows = 3000
	var errs []<-chan error
	for i := 0; i < 4; i++ {
		errs = append(errs, submitAsync(context.Background(), s, lbl, r, rows, makeBatch(rows, 1, float32(i)), make([]float32, rows)))
	}
	waitDepth(t, s, 4)
	release()
	for _, errc := range errs {
		if err := <-errc; err != nil {
			t.Fatal(err)
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.calls) != 2 || r.calls[0] != 2*rows || r.calls[1] != 2*rows {
		t.Fatalf("passes of %v rows, want two of %d (MaxBatchRows %d)", r.calls, 2*rows, MaxBatchRows)
	}
}

func TestCancelBeforeClaim(t *testing.T) {
	s := New(metrics.NewRegistry())
	r := &fakeRunner{in: 1, out: 1}
	lbl := Label{"m", "cpu"}
	release := fillGate(t, s, "cpu")
	defer release()

	ctx, cancel := context.WithCancel(context.Background())
	errc := submitAsync(ctx, s, lbl, r, 1, makeBatch(1, 1, 1), make([]float32, 1))
	waitDepth(t, s, 1)
	cancel()
	// The gate stays full until the deferred release: a waiter canceled
	// before any claim returns without waiting for the device.
	if err := <-errc; !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if got := r.callCount(); got != 0 {
		t.Fatalf("canceled request reached the runner (%d passes)", got)
	}
	waitDepth(t, s, 0)
}

// TestCancelAfterClaimWaitsForBatch: a canceled submitter whose request is
// in a running pass returns the context error only after that pass — as a
// lone combiner running its own request, and as one of two requests
// coalesced into one pass, where one of them is the combiner and the other
// waits on it.
func TestCancelAfterClaimWaitsForBatch(t *testing.T) {
	for _, n := range []int{1, 2} {
		s := New(metrics.NewRegistry())
		entered := make(chan struct{}, 1)
		rel := make(chan struct{})
		r := &blocker{entered: entered, release: rel}
		lbl := Label{"m", "cpu"}
		var releaseGate func()
		if n > 1 {
			releaseGate = fillGate(t, s, "cpu")
		}
		ctx, cancel := context.WithCancel(context.Background())
		var errs []<-chan error
		for i := 0; i < n; i++ {
			errs = append(errs, submitAsync(ctx, s, lbl, r, 1, make([]float32, 1), make([]float32, 1)))
		}
		if n > 1 {
			waitDepth(t, s, n)
			releaseGate()
		}
		<-entered // the pass holding every request is running
		cancel()
		var finished atomic.Bool
		time.AfterFunc(20*time.Millisecond, func() {
			finished.Store(true)
			close(rel)
		})
		for _, errc := range errs {
			err := <-errc
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("%d requests: want context.Canceled, got %v", n, err)
			}
			if !finished.Load() {
				t.Fatalf("%d requests: a claimed, canceled submit returned before its pass finished", n)
			}
		}
	}
}

func TestRunError_PropagatesToAllWaiters(t *testing.T) {
	failure := errors.New("device melted")
	s := New(metrics.NewRegistry())
	r := &fakeRunner{in: 1, out: 1, fail: failure}
	lbl := Label{"m", "cpu"}
	release := fillGate(t, s, "cpu")
	var errs []<-chan error
	for i := 0; i < 5; i++ {
		errs = append(errs, submitAsync(context.Background(), s, lbl, r, 1, makeBatch(1, 1, 0), make([]float32, 1)))
	}
	waitDepth(t, s, 5)
	release()
	for _, errc := range errs {
		if err := <-errc; !errors.Is(err, failure) {
			t.Fatalf("want %v, got %v", failure, err)
		}
	}
	if got := r.callCount(); got != 1 {
		t.Fatalf("%d passes, want the 5 requests in one", got)
	}
}

func TestDeviceGateCapsInflight(t *testing.T) {
	s := New(metrics.NewRegistry())
	// Two runners (distinct models) share the "gpu" device gate.
	ra := &fakeRunner{in: 1, out: 1, delay: 20 * time.Millisecond}
	rb := &fakeRunner{in: 1, out: 1, delay: 20 * time.Millisecond}
	shared := atomic.Int32{}
	peak := atomic.Int32{}
	wrap := func(f *fakeRunner) *gatedRunner {
		return &gatedRunner{f: f, running: &shared, peak: &peak}
	}
	ga, gb := wrap(ra), wrap(rb)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			lbl := Label{Model: "a", Device: "gpu"}
			var r Runner = ga
			if i%2 == 1 {
				lbl.Model = "b"
				r = gb
			}
			st, pr := makeBatch(1, 1, 0), make([]float32, 1)
			if _, err := s.Submit(context.Background(), lbl, r, 1, st, pr); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if p := peak.Load(); p > MaxInFlight {
		t.Fatalf("device ran %d concurrent batches, cap is %d", p, MaxInFlight)
	}
}

type gatedRunner struct {
	f             *fakeRunner
	running, peak *atomic.Int32
}

func (g *gatedRunner) InputDim() int  { return g.f.InputDim() }
func (g *gatedRunner) OutputDim() int { return g.f.OutputDim() }
func (g *gatedRunner) RunPacked(rows int, staging, preds []float32) (time.Duration, error) {
	n := g.running.Add(1)
	for {
		p := g.peak.Load()
		if n <= p || g.peak.CompareAndSwap(p, n) {
			break
		}
	}
	defer g.running.Add(-1)
	return g.f.RunPacked(rows, staging, preds)
}

// TestSchedulerLeavesNothingBehind: after submits, cancels before and after
// claim and a failing pass, the scheduler holds no queue and no goroutine
// of its own is left running.
func TestSchedulerLeavesNothingBehind(t *testing.T) {
	base := runtime.NumGoroutine()
	s := New(metrics.NewRegistry())
	ok := &fakeRunner{in: 2, out: 1}
	bad := &fakeRunner{in: 2, out: 1, fail: errors.New("boom")}
	lbl := Label{"m", "cpu"}
	submit := func(ctx context.Context, r Runner) <-chan error {
		return submitAsync(ctx, s, lbl, r, 4, makeBatch(4, 2, 1), make([]float32, 4))
	}

	// Submits that run alone, then a coalesced pass.
	for i := 0; i < 3; i++ {
		if err := <-submit(context.Background(), ok); err != nil {
			t.Fatal(err)
		}
	}
	release := fillGate(t, s, "cpu")
	before, cancelBefore := context.WithCancel(context.Background())
	a, b := submit(context.Background(), ok), submit(before, ok)
	waitDepth(t, s, 2)
	cancelBefore()
	if err := <-b; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancel before claim: %v", err)
	}
	fail := submit(context.Background(), bad)
	waitDepth(t, s, 2)
	release()
	if err := <-a; err != nil {
		t.Fatal(err)
	}
	if err := <-fail; err == nil {
		t.Fatal("failing pass reported no error")
	}

	// A cancel after claim, on a pass parked in its runner.
	entered, rel := make(chan struct{}, 1), make(chan struct{})
	after, cancelAfter := context.WithCancel(context.Background())
	c := submitAsync(after, s, lbl, &blocker{entered: entered, release: rel}, 1, make([]float32, 1), make([]float32, 1))
	<-entered
	cancelAfter()
	close(rel)
	if err := <-c; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancel after claim: %v", err)
	}

	if states := s.queueStates(); len(states) != 0 {
		t.Fatalf("%d queues remain: %+v", len(states), states)
	}
	if txt := s.StatsText(); !strings.Contains(txt, "queues: none live") {
		t.Fatalf("StatsText:\n%s", txt)
	}
	// The test's own submitter goroutines have sent their results; give
	// them the moment they need to exit.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines, %d at start:\n%s", runtime.NumGoroutine(), base, buf[:runtime.Stack(buf, true)])
		}
		runtime.Gosched()
	}
}

// TestStatsAndSnapshots: the batch ring keeps the newest records in ID
// order and the reports count every pass; once the traffic stops no queue
// is live (the live-queue lines are checked while requests pend, in
// TestConcurrentSubmitsCoalesce).
func TestStatsAndSnapshots(t *testing.T) {
	s := New(metrics.NewRegistry())
	s.stats.ring = metrics.NewRing[BatchStat](4)
	r := &fakeRunner{in: 1, out: 1}
	lbl := Label{Model: "iris", Device: "cpu"}
	for i := 0; i < 6; i++ {
		st, pr := makeBatch(2, 1, float32(i)), make([]float32, 2)
		if _, err := s.Submit(context.Background(), lbl, r, 2, st, pr); err != nil {
			t.Fatal(err)
		}
	}
	snap := s.BatchSnapshot()
	if len(snap) != 4 {
		t.Fatalf("ring of 4 retained %d records", len(snap))
	}
	for i := 1; i < len(snap); i++ {
		if snap[i].ID <= snap[i-1].ID {
			t.Fatalf("snapshot not ID-ordered: %v", snap)
		}
	}
	last := snap[len(snap)-1]
	if last.Model != "iris" || last.Device != "cpu" || last.Rows != 2 || last.Requests != 1 {
		t.Fatalf("bad record: %+v", last)
	}
	txt := s.StatsText()
	for _, want := range []string{
		"inference batcher: max_batch_rows=8192 max_inflight=2\n",
		"batches: total=6", "coalesce_wait:", "queues: none live",
	} {
		if !strings.Contains(txt, want) {
			t.Fatalf("StatsText missing %q:\n%s", want, txt)
		}
	}
	if line := s.StatusLine(); !strings.Contains(line, "queues=0 ") || !strings.Contains(line, "batches=6") {
		t.Fatalf("StatusLine: %s", line)
	}
}

// TestNewRegistersMetrics: the collectors New registers count every batch,
// with no attachment step.
func TestNewRegistersMetrics(t *testing.T) {
	reg := metrics.NewRegistry()
	s := New(reg)
	r := &fakeRunner{in: 1, out: 1}
	st, pr := makeBatch(3, 1, 0), make([]float32, 3)
	if _, err := s.Submit(context.Background(), Label{"m", "cpu"}, r, 3, st, pr); err != nil {
		t.Fatal(err)
	}
	txt := reg.Text()
	for _, want := range []string{
		"vectordb_infer_batches_total 1",
		"vectordb_infer_rows_total 3",
		"vectordb_infer_batch_rows_count 1",
		"vectordb_infer_coalesce_wait_seconds_count 1",
	} {
		if !strings.Contains(txt, want) {
			t.Fatalf("metrics text missing %q:\n%s", want, txt)
		}
	}
}

func TestSubmitZeroRowsIsNoop(t *testing.T) {
	s := New(metrics.NewRegistry())
	r := &fakeRunner{in: 1, out: 1}
	if _, err := s.Submit(context.Background(), Label{"m", "cpu"}, r, 0, nil, nil); err != nil {
		t.Fatal(err)
	}
	if r.callCount() != 0 {
		t.Fatal("zero-row submit must not reach the runner")
	}
}

func TestManyConcurrentSubmitters(t *testing.T) {
	// Stress the full path: many goroutines, two models, one device,
	// validating every result. Run with -race in CI.
	s := New(metrics.NewRegistry())
	ra := &fakeRunner{in: 3, out: 2, delay: time.Millisecond}
	rb := &fakeRunner{in: 3, out: 2, delay: time.Millisecond}
	var wg sync.WaitGroup
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r, name := ra, "a"
			if i%3 == 0 {
				r, name = rb, "b"
			}
			for j := 0; j < 4; j++ {
				rows := 1 + (i+j)%5
				st := makeBatch(rows, 3, float32(i*100+j))
				pr := make([]float32, rows*2)
				if _, err := s.Submit(context.Background(), Label{name, "cpu"}, r, rows, st, pr); err != nil {
					t.Errorf("submit %d/%d: %v", i, j, err)
					return
				}
				for row := 0; row < rows; row++ {
					var sum float32
					for c := 0; c < 3; c++ {
						sum += st[row*3+c]
					}
					for c := 0; c < 2; c++ {
						if got, want := pr[row*2+c], sum+float32(c); got != want {
							t.Errorf("submit %d/%d row %d: got %v want %v", i, j, row, got, want)
							return
						}
					}
				}
			}
		}()
	}
	wg.Wait()
	total := s.stats.requests.Value()
	if want := int64(32 * 4); total != want {
		t.Fatalf("stats requests=%d want %d", total, want)
	}
	if states := s.queueStates(); len(states) != 0 {
		t.Fatalf("%d queues remain after the load", len(states))
	}
}

func BenchmarkSubmitSingleStream(b *testing.B) {
	s := New(metrics.NewRegistry())
	r := &fakeRunner{in: 8, out: 1}
	st := makeBatch(64, 8, 1)
	pr := make([]float32, 64)
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Submit(ctx, Label{"m", "cpu"}, r, 64, st, pr); err != nil {
			b.Fatal(err)
		}
	}
}

func ExampleScheduler_StatusLine() {
	s := New(metrics.NewRegistry())
	fmt.Println(s.StatusLine())
	// Output: queues=0 depth=0 inflight=0 batches=0 coalesced=0 mean_rows=0.0 mean_wait=0s
}
