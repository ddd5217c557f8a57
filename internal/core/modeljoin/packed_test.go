package modeljoin

import (
	"context"
	"math"
	"runtime"
	"testing"

	"indbml/internal/core/relmodel"
	"indbml/internal/device"
	"indbml/internal/engine/vector"
	"indbml/internal/infersched"
	"indbml/internal/metrics"
	"indbml/internal/nn"
	"indbml/internal/trace"
)

// packRows gathers reference feature rows into a row-major staging slice.
func packRows(data [][]float32, lo, hi int) []float32 {
	in := len(data[0])
	out := make([]float32, (hi-lo)*in)
	for r := lo; r < hi; r++ {
		copy(out[(r-lo)*in:], data[r])
	}
	return out
}

// TestRunPackedMatchesReference drives builtModel.RunPacked — the
// scheduler's entry point — directly, including super-batches larger than
// vector.Size, and compares against the nn reference implementation.
func TestRunPackedMatchesReference(t *testing.T) {
	model := nn.NewDenseModel("m", 4, 16, 2, 2, 5)
	_, data := factBatches(t, 3000, 4, 1)
	ref := model.PredictBatch(data)
	for _, dev := range []device.Device{device.NewCPU(), device.NewGPU(device.DefaultGPUConfig())} {
		sm := shared(t, model, dev, relmodel.LayoutPairs, 2, Config{})
		bm, err := sm.Build()
		if err != nil {
			t.Fatal(err)
		}
		if bm.InputDim() != 4 || bm.OutputDim() != 2 {
			t.Fatalf("dims: in=%d out=%d", bm.InputDim(), bm.OutputDim())
		}
		// 3000 rows in one packed call: ~3× vector.Size, the coalesced shape.
		for _, rows := range []int{1, 17, vector.Size, 3000} {
			staging := packRows(data, 0, rows)
			preds := make([]float32, rows*2)
			if _, err := bm.RunPacked(rows, staging, preds); err != nil {
				t.Fatal(err)
			}
			for r := 0; r < rows; r++ {
				for k := 0; k < 2; k++ {
					got, want := float64(preds[r*2+k]), float64(ref[r][k])
					if math.Abs(got-want) > 1e-4+1e-4*math.Abs(want) {
						t.Fatalf("rows=%d row=%d out=%d: got %v want %v", rows, r, k, got, want)
					}
				}
			}
		}
	}
}

// TestRunPackedLSTM drives RunPacked on an LSTM-first model: its input is
// one column per time step, and super-batches of any size match nn on the
// CPU and on GPU[sim].
func TestRunPackedLSTM(t *testing.T) {
	const steps = 3
	model := nn.NewLSTMModel("lm", steps, 12, 9)
	_, data := factBatches(t, 3000, steps, 2)
	ref := model.PredictBatch(data)
	for _, dev := range []device.Device{device.NewCPU(), device.NewGPU(device.DefaultGPUConfig())} {
		sm := shared(t, model, dev, relmodel.LayoutPairs, 1, Config{})
		bm, err := sm.Build()
		if err != nil {
			t.Fatal(err)
		}
		if bm.InputDim() != steps || bm.OutputDim() != 1 {
			t.Fatalf("dims: in=%d out=%d, want %d/1", bm.InputDim(), bm.OutputDim(), steps)
		}
		for _, rows := range []int{1, 17, vector.Size, 3000} {
			preds := make([]float32, rows)
			if _, err := bm.RunPacked(rows, packRows(data, 0, rows), preds); err != nil {
				t.Fatal(err)
			}
			for r := 0; r < rows; r++ {
				got, want := float64(preds[r]), float64(ref[r][0])
				if math.Abs(got-want) > 1e-4+1e-4*math.Abs(want) {
					t.Fatalf("%s rows=%d row=%d: got %v want %v", dev.Name(), rows, r, got, want)
				}
			}
		}
	}
}

// TestScratchShapeAware covers the satellite fix: super-batch scratch must
// be pooled by capacity, not thrash per-call reallocations, and small
// requests must not consume an oversized entry another super-batch wants.
func TestScratchShapeAware(t *testing.T) {
	model := nn.NewDenseModel("m", 4, 8, 1, 1, 3)
	sm := shared(t, model, device.NewCPU(), relmodel.LayoutPairs, 1, Config{})
	bm, err := sm.Build()
	if err != nil {
		t.Fatal(err)
	}
	big := bm.getScratch(3 * vector.Size)
	if big.rows != 3*vector.Size {
		t.Fatalf("capacity %d, want rounded-up %d", big.rows, 3*vector.Size)
	}
	if got := len(big.bufs[0].Data); got != 4*big.rows {
		t.Fatalf("input buffer len %d, want %d", got, 4*big.rows)
	}
	huge := bm.getScratch(3*vector.Size + 1)
	if huge.rows != 4*vector.Size {
		t.Fatalf("capacity %d, want rounded-up %d", huge.rows, 4*vector.Size)
	}
	bm.putScratch(big)
	bm.putScratch(huge)

	// A small request takes the smallest adequate entry (big, 3×), leaving
	// huge pooled for larger callers.
	small := bm.getScratch(10)
	if small.rows != 3*vector.Size {
		t.Fatalf("small request got capacity %d, want smallest adequate %d", small.rows, 3*vector.Size)
	}
	// A 4×-sized request must find huge still pooled, not reallocate.
	again := bm.getScratch(4 * vector.Size)
	if again != huge {
		t.Fatalf("super-batch request reallocated instead of reusing pooled capacity %d", again.rows)
	}
	bm.putScratch(small)
	bm.putScratch(again)
}

// TestScratchPoolKeepsLargest fills the pool with single-batch working sets
// and then returns a super-batch's: the full pool must keep the larger one,
// so the next super-batch of that size reuses it instead of allocating.
func TestScratchPoolKeepsLargest(t *testing.T) {
	model := nn.NewDenseModel("m", 4, 8, 1, 1, 3)
	sm := shared(t, model, device.NewCPU(), relmodel.LayoutPairs, 1, Config{})
	bm, err := sm.Build()
	if err != nil {
		t.Fatal(err)
	}
	limit := 2 * runtime.GOMAXPROCS(0)
	var smalls []*inferScratch
	for i := 0; i < limit; i++ {
		smalls = append(smalls, bm.getScratch(vector.Size))
	}
	big := bm.getScratch(2 * vector.Size)
	for _, s := range smalls {
		bm.putScratch(s)
	}
	bm.putScratch(big)
	if n := len(bm.scratchPool); n != limit {
		t.Fatalf("pool holds %d working sets, want its bound %d", n, limit)
	}
	if again := bm.getScratch(2 * vector.Size); again != big {
		t.Fatalf("super-batch request got a new working set of capacity %d instead of the pooled one", again.rows)
	}
	// A working set no larger than every pooled one is released.
	bm.putScratch(big)
	extra := &inferScratch{rows: vector.Size}
	bm.putScratch(extra)
	for _, s := range bm.scratchPool {
		if s == extra {
			t.Fatal("full pool kept a working set no larger than its smallest entry")
		}
	}
}

// TestOperatorThroughScheduler runs the full operator on its own scheduler
// and verifies results match the reference, the batched label is stamped,
// and the scheduler saw the requests.
func TestOperatorThroughScheduler(t *testing.T) {
	model := nn.NewDenseModel("m", 4, 16, 2, 2, 5)
	_, data := factBatches(t, 2500, 4, 1)
	ref := model.PredictBatch(data)

	sched := infersched.New(metrics.NewRegistry())
	child, _ := factBatches(t, 2500, 4, 1)
	op, err := New(child, shared(t, model, device.NewCPU(), relmodel.LayoutPairs, 2, Config{}), []int{1, 2, 3, 4},
		sched, infersched.Label{Model: "m", Device: "cpu"})
	if err != nil {
		t.Fatal(err)
	}
	op.SetQueryContext(context.Background())
	sp := trace.NewSpan("ModelJoin")
	op.SetSpan(sp)
	out := runOp(t, op)
	if out.Len() != 2500 {
		t.Fatalf("got %d rows", out.Len())
	}
	checkAgainstReference(t, out, ref, 2, 1e-4)
	if got := len(sched.BatchSnapshot()); got != 3 {
		t.Fatalf("scheduler saw %d batches, want one per input batch (3)", got)
	}
	if got := sp.Label("batched"); got != "yes" {
		t.Fatalf("batched label %q, want yes", got)
	}
}

// TestOperatorSchedulerLSTM: an LSTM MODEL JOIN takes the same road as a
// dense one — every input batch reaches the scheduler, the batched label is
// stamped, and the results match nn.
func TestOperatorSchedulerLSTM(t *testing.T) {
	model := nn.NewLSTMModel("lm", 3, 12, 9)
	child, data := factBatches(t, 1500, 3, 2)
	ref := model.PredictBatch(data)
	sched := infersched.New(metrics.NewRegistry())
	op, err := New(child, shared(t, model, device.NewCPU(), relmodel.LayoutPairs, 2, Config{}), []int{1, 2, 3},
		sched, infersched.Label{Model: "lm", Device: "cpu"})
	if err != nil {
		t.Fatal(err)
	}
	op.SetQueryContext(context.Background())
	sp := trace.NewSpan("ModelJoin")
	op.SetSpan(sp)
	out := runOp(t, op)
	if out.Len() != 1500 {
		t.Fatalf("got %d rows", out.Len())
	}
	checkAgainstReference(t, out, ref, 1, 1e-4)
	if got := len(sched.BatchSnapshot()); got != 2 {
		t.Fatalf("scheduler saw %d lstm batches, want one per input batch (2)", got)
	}
	if got := sp.Label("batched"); got != "yes" {
		t.Fatalf("batched label %q, want yes", got)
	}
}

// TestWidePathsAgree runs a 256-wide model — full 16-column panels, partial
// row tiles, both BLAS workers — through the operator and the scheduler
// against nn's reference forward pass, on the CPU and on GPU[sim], and
// checks RunPacked reports its kernels' busy time.
func TestWidePathsAgree(t *testing.T) {
	model := nn.NewDenseModel("wide", 4, 256, 4, 3, 17)
	const rows = 2500
	_, data := factBatches(t, rows, 4, 6)
	ref := model.PredictBatch(data)
	for _, dev := range []device.Device{device.NewCPU(), device.NewGPU(device.DefaultGPUConfig())} {
		sm := shared(t, model, dev, relmodel.LayoutPairs, 4, Config{})
		child, _ := factBatches(t, rows, 4, 6)
		op, err := newOp(child, sm, []int{1, 2, 3, 4})
		if err != nil {
			t.Fatal(err)
		}
		checkAgainstReference(t, runOp(t, op), ref, 3, 1e-4)

		bm, err := sm.Build()
		if err != nil {
			t.Fatal(err)
		}
		busy, err := bm.RunPacked(rows, packRows(data, 0, rows), make([]float32, rows*3))
		if err != nil {
			t.Fatal(err)
		}
		if busy <= 0 {
			t.Errorf("%s: RunPacked reported no kernel busy time", dev.Name())
		}
	}
}
