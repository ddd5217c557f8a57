package infersched

import (
	"context"
	"errors"
	"fmt"
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

func TestSingleSubmitNoCoalesceWait(t *testing.T) {
	s := New(Config{MaxWait: 50 * time.Millisecond}, metrics.NewRegistry())
	r := &fakeRunner{in: 4, out: 1}
	staging := makeBatch(8, 4, 2)
	preds := make([]float32, 8)
	res, err := s.Submit(context.Background(), Label{"m", "cpu"}, r, 8, staging, preds)
	if err != nil {
		t.Fatal(err)
	}
	// Idle queue → immediate launch; the wait must be far below MaxWait.
	if res.Wait > 20*time.Millisecond {
		t.Fatalf("single-stream submit waited %v", res.Wait)
	}
	wantPreds(t, r, staging, preds, 8)
	if got := r.callCount(); got != 1 {
		t.Fatalf("runner called %d times, want 1", got)
	}
}

func TestConcurrentSubmitsCoalesce(t *testing.T) {
	// One slow in-flight batch forces all later arrivals to pend together;
	// MaxInFlight=1 serializes the device so the pending set launches as one
	// super-batch.
	s := New(Config{MaxWait: time.Second, MaxInFlight: 1}, metrics.NewRegistry())
	r := &fakeRunner{in: 2, out: 2, delay: 30 * time.Millisecond}
	lbl := Label{"m", "gpu"}

	// Prime the queue with an in-flight batch.
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		st := makeBatch(1, 2, 0)
		pr := make([]float32, 2)
		if _, err := s.Submit(context.Background(), lbl, r, 1, st, pr); err != nil {
			t.Error(err)
		}
	}()
	time.Sleep(5 * time.Millisecond) // let it launch

	const n = 6
	stagings := make([][]float32, n)
	predss := make([][]float32, n)
	for i := 0; i < n; i++ {
		i := i
		stagings[i] = makeBatch(3, 2, float32(10*i))
		predss[i] = make([]float32, 3*2)
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := s.Submit(context.Background(), lbl, r, 3, stagings[i], predss[i])
			if err != nil {
				t.Error(err)
			}
			// However the batch was packed, a 3-row request's share of the
			// runner's 1µs-per-row busy time is 3µs.
			if res.Busy != 3*time.Microsecond {
				t.Errorf("submit %d: busy share %v, want 3µs", i, res.Busy)
			}
		}()
	}
	wg.Wait()

	for i := 0; i < n; i++ {
		wantPreds(t, r, stagings[i], predss[i], 3)
	}
	// First call is the primer (1 row); everything else must have coalesced
	// into far fewer calls than n.
	if calls := r.callCount(); calls >= n+1 {
		t.Fatalf("no coalescing: %d calls for %d submits", calls, n+1)
	}
	st := s.stats
	if st.coalesced.Value() == 0 {
		t.Fatal("stats recorded no coalesced batches")
	}
	if got, want := st.requests.Value(), int64(n+1); got != want {
		t.Fatalf("stats requests=%d want %d", got, want)
	}
}

func TestMaxBatchRowsSplitsLaunch(t *testing.T) {
	s := New(Config{MaxWait: time.Second, MaxBatchRows: 4, MaxInFlight: 1}, metrics.NewRegistry())
	r := &fakeRunner{in: 1, out: 1, delay: 20 * time.Millisecond}
	lbl := Label{"m", "cpu"}
	var wg sync.WaitGroup
	// Primer occupies the device, then 4×2-row submits pend: budget 4 rows
	// means they must go out as ≥2 separate super-batches.
	wg.Add(1)
	go func() {
		defer wg.Done()
		st, pr := makeBatch(1, 1, 0), make([]float32, 1)
		s.Submit(context.Background(), lbl, r, 1, st, pr)
	}()
	time.Sleep(5 * time.Millisecond)
	for i := 0; i < 4; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			st, pr := makeBatch(2, 1, float32(i)), make([]float32, 2)
			if _, err := s.Submit(context.Background(), lbl, r, 2, st, pr); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, rows := range r.calls {
		if rows > 4 {
			t.Fatalf("batch of %d rows exceeds MaxBatchRows=4 (calls %v)", rows, r.calls)
		}
	}
}

func TestCancelBeforeClaim(t *testing.T) {
	s := New(Config{MaxWait: time.Hour, MaxInFlight: 1}, metrics.NewRegistry())
	r := &fakeRunner{in: 1, out: 1, delay: 50 * time.Millisecond}
	lbl := Label{"m", "cpu"}

	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // occupy the device so the victim pends
		defer wg.Done()
		st, pr := makeBatch(1, 1, 0), make([]float32, 1)
		s.Submit(context.Background(), lbl, r, 1, st, pr)
	}()
	time.Sleep(5 * time.Millisecond)

	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		st, pr := makeBatch(1, 1, 1), make([]float32, 1)
		_, err := s.Submit(ctx, lbl, r, 1, st, pr)
		errc <- err
	}()
	time.Sleep(5 * time.Millisecond)
	cancel()
	select {
	case err := <-errc:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("want context.Canceled, got %v", err)
		}
	case <-time.After(10 * time.Millisecond):
		// MaxWait is an hour and the device is busy for another ~40ms: a
		// canceled-before-claim waiter must return immediately, not wait.
		t.Fatal("canceled waiter did not return promptly")
	}
	wg.Wait()
	// The canceled request must not have been packed into any batch.
	if got := r.callCount(); got != 1 {
		t.Fatalf("runner ran %d batches, want 1 (primer only)", got)
	}
}

func TestCancelAfterClaimWaitsForBatch(t *testing.T) {
	s := New(Config{MaxWait: time.Hour}, metrics.NewRegistry())
	r := &fakeRunner{in: 1, out: 1, delay: 40 * time.Millisecond}
	lbl := Label{"m", "cpu"}
	ctx, cancel := context.WithCancel(context.Background())
	st, pr := makeBatch(1, 1, 3), make([]float32, 1)
	errc := make(chan error, 1)
	go func() {
		_, err := s.Submit(ctx, lbl, r, 1, st, pr)
		errc <- err
	}()
	time.Sleep(10 * time.Millisecond) // idle queue → claimed and launched
	begin := time.Now()
	cancel()
	err := <-errc
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	// Buffers were owned by the in-flight batch: Submit must have blocked
	// until the run finished (≈30ms left of the 40ms delay).
	if e := time.Since(begin); e < 15*time.Millisecond {
		t.Fatalf("claimed-then-canceled submit returned after %v; should wait out the batch", e)
	}
}

func TestRunError_PropagatesToAllWaiters(t *testing.T) {
	failure := errors.New("device melted")
	s := New(Config{MaxWait: time.Second, MaxInFlight: 1}, metrics.NewRegistry())
	r := &fakeRunner{in: 1, out: 1, delay: 20 * time.Millisecond, fail: failure}
	lbl := Label{"m", "cpu"}
	var wg sync.WaitGroup
	errs := make(chan error, 5)
	for i := 0; i < 5; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			st, pr := makeBatch(1, 1, 0), make([]float32, 1)
			_, err := s.Submit(context.Background(), lbl, r, 1, st, pr)
			errs <- err
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if !errors.Is(err, failure) {
			t.Fatalf("want %v, got %v", failure, err)
		}
	}
}

func TestDeviceGateCapsInflight(t *testing.T) {
	s := New(Config{MaxWait: time.Millisecond, MaxInFlight: 2}, metrics.NewRegistry())
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
		i := i
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
	if p := peak.Load(); p > 2 {
		t.Fatalf("device ran %d concurrent batches, cap is 2", p)
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

// yieldSpy verifies Submit releases the admission slot around its wait.
type yieldSpy struct {
	yields, unyields atomic.Int32
}

func (y *yieldSpy) Yield() { y.yields.Add(1) }
func (y *yieldSpy) Unyield(ctx context.Context) error {
	y.unyields.Add(1)
	return nil
}

func TestSubmitYieldsSlot(t *testing.T) {
	s := New(Config{}, metrics.NewRegistry())
	r := &fakeRunner{in: 1, out: 1}
	spy := &yieldSpy{}
	ctx := WithYielder(context.Background(), spy)
	st, pr := makeBatch(1, 1, 0), make([]float32, 1)
	if _, err := s.Submit(ctx, Label{"m", "cpu"}, r, 1, st, pr); err != nil {
		t.Fatal(err)
	}
	if spy.yields.Load() != 1 || spy.unyields.Load() != 1 {
		t.Fatalf("yields=%d unyields=%d, want 1/1", spy.yields.Load(), spy.unyields.Load())
	}
}

// TestYielderContext: a yielder survives the context round-trip; a bare, nil
// or nil-yielder context carries none.
func TestYielderContext(t *testing.T) {
	spy := &yieldSpy{}
	if got := YielderFrom(WithYielder(context.Background(), spy)); got != spy {
		t.Fatalf("yielder round-trip returned %v", got)
	}
	if YielderFrom(context.Background()) != nil {
		t.Fatal("YielderFrom on bare ctx must be nil")
	}
	if YielderFrom(nil) != nil { //nolint:staticcheck // nil ctx is part of the contract
		t.Fatal("YielderFrom on nil ctx must be nil")
	}
	if YielderFrom(WithYielder(context.Background(), nil)) != nil {
		t.Fatal("WithYielder(nil) must attach nothing")
	}
}

func TestQueueRetiresWhenIdle(t *testing.T) {
	s := New(Config{}, metrics.NewRegistry())
	r := &fakeRunner{in: 1, out: 1}
	st, pr := makeBatch(1, 1, 0), make([]float32, 1)
	if _, err := s.Submit(context.Background(), Label{"m", "cpu"}, r, 1, st, pr); err != nil {
		t.Fatal(err)
	}
	s.mu.Lock()
	live := len(s.queues)
	s.mu.Unlock()
	if live != 1 {
		t.Fatalf("expected 1 live queue, got %d", live)
	}
	// Dead-queue handling: mark it dead by hand (idleExit is 5s — too slow
	// for a unit test) and check enqueue recovers with a fresh queue.
	s.mu.Lock()
	q := s.queues[r]
	s.mu.Unlock()
	s.mu.Lock()
	q.mu.Lock()
	q.dead = true
	delete(s.queues, r)
	q.mu.Unlock()
	s.mu.Unlock()
	if _, err := s.Submit(context.Background(), Label{"m", "cpu"}, r, 1, st, pr); err != nil {
		t.Fatalf("submit after queue death: %v", err)
	}
}

func TestStatsAndSnapshots(t *testing.T) {
	s := New(Config{}, metrics.NewRegistry())
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
	for _, want := range []string{"batches: total=6", "model=iris", "coalesce_wait:"} {
		if !strings.Contains(txt, want) {
			t.Fatalf("StatsText missing %q:\n%s", want, txt)
		}
	}
	if line := s.StatusLine(); !strings.Contains(line, "queues=1 ") || !strings.Contains(line, "batches=6") {
		t.Fatalf("StatusLine: %s", line)
	}
}

// TestNewRegistersMetrics: the collectors New registers count every batch,
// with no attachment step.
func TestNewRegistersMetrics(t *testing.T) {
	reg := metrics.NewRegistry()
	s := New(Config{}, reg)
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
	s := New(Config{}, metrics.NewRegistry())
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
	s := New(Config{MaxWait: 200 * time.Microsecond, MaxInFlight: 2}, metrics.NewRegistry())
	ra := &fakeRunner{in: 3, out: 2, delay: time.Millisecond}
	rb := &fakeRunner{in: 3, out: 2, delay: time.Millisecond}
	var wg sync.WaitGroup
	for i := 0; i < 32; i++ {
		i := i
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
}

func TestConfigDefaults(t *testing.T) {
	c := Config{}.withDefaults()
	if c.MaxWait != defaultMaxWait || c.MaxBatchRows != defaultMaxBatchRows ||
		c.MaxInFlight != defaultMaxInFlight {
		t.Fatalf("defaults not applied: %+v", c)
	}
	c = Config{MaxWait: time.Minute, MaxBatchRows: 1, MaxInFlight: 9}.withDefaults()
	if c.MaxWait != time.Minute || c.MaxBatchRows != 1 || c.MaxInFlight != 9 {
		t.Fatalf("explicit config overridden: %+v", c)
	}
}

func BenchmarkSubmitSingleStream(b *testing.B) {
	s := New(Config{}, metrics.NewRegistry())
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
	s := New(Config{}, metrics.NewRegistry())
	fmt.Println(s.StatusLine())
	// Output: queues=0 depth=0 inflight=0 batches=0 coalesced=0 mean_rows=0.0 mean_wait=0s
}
