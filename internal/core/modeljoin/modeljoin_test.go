package modeljoin

import (
	"math"
	"math/rand"
	"testing"

	"indbml/internal/core/relmodel"
	"indbml/internal/device"
	"indbml/internal/engine/exec"
	"indbml/internal/engine/types"
	"indbml/internal/engine/vector"
	"indbml/internal/infersched"
	"indbml/internal/metrics"
	"indbml/internal/nn"
)

func factBatches(t *testing.T, rows, nCols int, seed int64) (exec.Operator, [][]float32) {
	t.Helper()
	schema, batches, data := factData(rows, nCols, seed)
	return exec.NewValues(schema, batches...), data
}

// factData is rows of (id BIGINT, c0.. FLOAT) in vector.Size batches, plus
// the feature rows.
func factData(rows, nCols int, seed int64) (*types.Schema, []*vector.Batch, [][]float32) {
	cols := []types.Column{{Name: "id", Type: types.Int64}}
	for i := 0; i < nCols; i++ {
		cols = append(cols, types.Column{Name: "c" + string(rune('0'+i)), Type: types.Float32})
	}
	schema := types.NewSchema(cols...)
	rng := rand.New(rand.NewSource(seed))
	data := make([][]float32, rows)
	var batches []*vector.Batch
	for start := 0; start < rows; start += vector.Size {
		end := start + vector.Size
		if end > rows {
			end = rows
		}
		b := vector.NewBatch(schema, end-start)
		for r := start; r < end; r++ {
			row := []types.Datum{types.Int64Datum(int64(r))}
			data[r] = make([]float32, nCols)
			for c := range data[r] {
				data[r][c] = rng.Float32()*2 - 1
				row = append(row, types.Float32Datum(data[r][c]))
			}
			_ = b.AppendRow(row...)
		}
		batches = append(batches, b)
	}
	return schema, batches, data
}

func shared(t *testing.T, m *nn.Model, dev device.Device, layout relmodel.Layout, parts int, cfg Config) *SharedModel {
	t.Helper()
	tbl, meta, err := relmodel.Export(m, relmodel.ExportOptions{Layout: layout, Partitions: parts})
	if err != nil {
		t.Fatal(err)
	}
	return &SharedModel{Table: tbl, Meta: meta, Dev: dev, Cfg: cfg}
}

// testSched is the scheduler the operators under test submit to, as every
// MODEL JOIN in the engine does.
var testSched = infersched.New(metrics.NewRegistry())

// newOp builds an operator on testSched, queued under the model and device.
func newOp(child exec.Operator, sm *SharedModel, inputCols []int) (*Operator, error) {
	return New(child, sm, inputCols, testSched, infersched.Label{Model: sm.Meta.Name, Device: sm.Dev.Name()})
}

func runOp(t *testing.T, op exec.Operator) *vector.Batch {
	t.Helper()
	out, err := exec.Collect(op)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func checkAgainstReference(t *testing.T, out *vector.Batch, ref [][]float32, outDim int, eps float64) {
	t.Helper()
	base := out.Schema.Len() - outDim
	for r := 0; r < out.Len(); r++ {
		id := out.Vecs[0].Int64s()[r]
		for k := 0; k < outDim; k++ {
			got := float64(out.Vecs[base+k].Float32s()[r])
			want := float64(ref[id][k])
			if math.Abs(got-want) > eps+eps*math.Abs(want) {
				t.Fatalf("id %d output %d: got %v want %v", id, k, got, want)
			}
		}
	}
}

func TestOperatorDenseExactOnCPU(t *testing.T) {
	child, data := factBatches(t, 2500, 4, 1)
	model := nn.NewDenseModel("m", 4, 16, 2, 2, 5)
	ref := model.PredictBatch(data)
	for _, layout := range []relmodel.Layout{relmodel.LayoutPairs, relmodel.LayoutNodeID} {
		child, _ := factBatches(t, 2500, 4, 1)
		op, err := newOp(child, shared(t, model, device.NewCPU(), layout, 3, Config{}), []int{1, 2, 3, 4})
		if err != nil {
			t.Fatal(err)
		}
		out := runOp(t, op)
		if out.Len() != 2500 {
			t.Fatalf("got %d rows", out.Len())
		}
		checkAgainstReference(t, out, ref, 2, 1e-4)
	}
	_ = child
}

func TestOperatorLSTM(t *testing.T) {
	child, data := factBatches(t, 1500, 3, 2)
	model := nn.NewLSTMModel("lm", 3, 12, 9)
	ref := model.PredictBatch(data)
	op, err := newOp(child, shared(t, model, device.NewCPU(), relmodel.LayoutPairs, 2, Config{}), []int{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	out := runOp(t, op)
	checkAgainstReference(t, out, ref, 1, 1e-4)
}

func TestOperatorGPUEqualsCPU(t *testing.T) {
	model := nn.NewDenseModel("m", 4, 32, 3, 1, 7)
	cpuChild, data := factBatches(t, 3000, 4, 3)
	cpuOp, err := newOp(cpuChild, shared(t, model, device.NewCPU(), relmodel.LayoutPairs, 2, Config{}), []int{1, 2, 3, 4})
	if err != nil {
		t.Fatal(err)
	}
	cpuOut := runOp(t, cpuOp)

	gpu := device.NewGPU(device.DefaultGPUConfig())
	gpuChild, _ := factBatches(t, 3000, 4, 3)
	gpuOp, err := newOp(gpuChild, shared(t, model, gpu, relmodel.LayoutPairs, 2, Config{}), []int{1, 2, 3, 4})
	if err != nil {
		t.Fatal(err)
	}
	gpuOut := runOp(t, gpuOp)

	base := cpuOut.Schema.Len() - 1
	for r := 0; r < cpuOut.Len(); r++ {
		if cpuOut.Vecs[base].Float32s()[r] != gpuOut.Vecs[base].Float32s()[r] {
			t.Fatalf("row %d: CPU %v != GPU %v (simulation must be exact)",
				r, cpuOut.Vecs[base].Float32s()[r], gpuOut.Vecs[base].Float32s()[r])
		}
	}
	st := gpu.Stats()
	if st.ModeledTime == 0 || st.BytesH2D == 0 {
		t.Errorf("GPU device did not account work: %+v", st)
	}
	_ = data
}

func TestSerialAndFineGrainedBuildAblations(t *testing.T) {
	model := nn.NewLSTMModel("lm", 3, 6, 13)
	for _, cfg := range []Config{{SerialBuild: true}, {FineGrainedGPUBuild: true}} {
		gpu := device.NewGPU(device.DefaultGPUConfig())
		child, data := factBatches(t, 800, 3, 5)
		op, err := newOp(child, shared(t, model, gpu, relmodel.LayoutPairs, 4, cfg), []int{1, 2, 3})
		if err != nil {
			t.Fatal(err)
		}
		out := runOp(t, op)
		ref := model.PredictBatch(data)
		checkAgainstReference(t, out, ref, 1, 1e-4)
	}
}

func TestFineGrainedGPUBuildTransfersMore(t *testing.T) {
	model := nn.NewDenseModel("m", 4, 32, 2, 1, 17)
	run := func(dev *device.GPU, cfg Config) int64 {
		sm := shared(t, model, dev, relmodel.LayoutPairs, 2, cfg)
		if _, err := sm.Build(); err != nil {
			t.Fatal(err)
		}
		return dev.Stats().ModeledTime.Nanoseconds()
	}
	coarse := device.NewGPU(device.DefaultGPUConfig())
	fine := device.NewGPU(device.DefaultGPUConfig())
	coarseTime := run(coarse, Config{})
	fineTime := run(fine, Config{FineGrainedGPUBuild: true})
	if fineTime <= coarseTime {
		t.Errorf("fine-grained GPU build (%d ns) should be slower than build-then-copy (%d ns)", fineTime, coarseTime)
	}
}

func TestSharedModelBuildsOnce(t *testing.T) {
	model := nn.NewDenseModel("m", 4, 8, 1, 1, 19)
	sm := shared(t, model, device.NewCPU(), relmodel.LayoutPairs, 4, Config{})
	b1, err := sm.Build()
	if err != nil {
		t.Fatal(err)
	}
	b2, err := sm.Build()
	if err != nil {
		t.Fatal(err)
	}
	if b1 != b2 {
		t.Error("SharedModel rebuilt instead of reusing")
	}
}

func TestInputValidation(t *testing.T) {
	model := nn.NewDenseModel("m", 4, 8, 1, 1, 21)
	child, _ := factBatches(t, 10, 4, 6)
	sm := shared(t, model, device.NewCPU(), relmodel.LayoutPairs, 1, Config{})
	if _, err := newOp(child, sm, []int{1, 2}); err == nil {
		t.Error("wrong input arity should fail")
	}
	if _, err := newOp(child, sm, []int{1, 2, 3, 99}); err == nil {
		t.Error("out-of-range column should fail")
	}
}

func TestPipelinedNoFullMaterialization(t *testing.T) {
	// The operator must emit batch-by-batch: after the first Next the
	// output already holds rows while the input is far from drained.
	model := nn.NewDenseModel("m", 4, 8, 1, 1, 23)
	child, _ := factBatches(t, 10*vector.Size, 4, 7)
	op, err := newOp(child, shared(t, model, device.NewCPU(), relmodel.LayoutPairs, 1, Config{}), []int{1, 2, 3, 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := op.Open(); err != nil {
		t.Fatal(err)
	}
	defer op.Close()
	first, err := op.Next()
	if err != nil {
		t.Fatal(err)
	}
	if first == nil || first.Len() != vector.Size {
		t.Fatalf("first batch: %v", first)
	}
}
