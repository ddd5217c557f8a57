package baselines_test

import (
	"math"
	"math/rand"
	"testing"

	"indbml/internal/baselines"
	"indbml/internal/device"
	"indbml/internal/engine/db"
	"indbml/internal/engine/exec"
	"indbml/internal/engine/storage"
	"indbml/internal/engine/types"
	"indbml/internal/engine/vector"
	"indbml/internal/nn"
)

func buildFact(t *testing.T, rows, nCols, partitions int, seed int64) (*storage.Table, [][]float32, []string) {
	t.Helper()
	cols := []types.Column{{Name: "id", Type: types.Int64}}
	names := make([]string, nCols)
	for i := 0; i < nCols; i++ {
		names[i] = "x" + string(rune('0'+i))
		cols = append(cols, types.Column{Name: names[i], Type: types.Float32})
	}
	tbl := storage.NewTable("fact", types.NewSchema(cols...), storage.Options{Partitions: partitions})
	tbl.SetSortedBy(0)
	tbl.SetUniqueKey(0)
	b := vector.NewBatch(tbl.Schema, rows)
	rng := rand.New(rand.NewSource(seed))
	data := make([][]float32, rows)
	for r := 0; r < rows; r++ {
		row := []types.Datum{types.Int64Datum(int64(r))}
		data[r] = make([]float32, nCols)
		for c := range data[r] {
			data[r][c] = rng.Float32()
			row = append(row, types.Float32Datum(data[r][c]))
		}
		if err := b.AppendRow(row...); err != nil {
			t.Fatal(err)
		}
	}
	if err := tbl.Append(b); err != nil {
		t.Fatal(err)
	}
	return tbl, data, names
}

func closeEnough(a, b float32) bool {
	d := float64(a - b)
	return math.Abs(d) <= 1e-3+1e-3*math.Abs(float64(b))
}

func TestTFPythonMatchesReference(t *testing.T) {
	for _, gpu := range []bool{false, true} {
		d := db.Open(db.Options{})
		tbl, data, names := buildFact(t, 2500, 4, 3, 1)
		d.RegisterTable(tbl)
		model := nn.NewDenseModel("m", 4, 16, 2, 2, 9)
		ref := model.PredictBatch(data)

		var dev device.Device = device.NewCPU()
		if gpu {
			dev = device.NewGPU(device.DefaultGPUConfig())
		}
		res, err := baselines.TFPython(d, "fact", "id", names, model, dev)
		if err != nil {
			t.Fatal(err)
		}
		if res.RowsFetched != 2500 || len(res.Predictions) != 2500 {
			t.Fatalf("fetched %d rows, %d predictions", res.RowsFetched, len(res.Predictions))
		}
		for i, id := range res.IDs {
			for k := range res.Predictions[i] {
				if !closeEnough(res.Predictions[i][k], ref[id][k]) {
					t.Fatalf("gpu=%v id %d output %d: got %v want %v", gpu, id, k, res.Predictions[i][k], ref[id][k])
				}
			}
		}
	}
}

func TestTFPythonLSTM(t *testing.T) {
	d := db.Open(db.Options{})
	tbl, data, names := buildFact(t, 800, 3, 2, 2)
	d.RegisterTable(tbl)
	model := nn.NewLSTMModel("lm", 3, 8, 42)
	ref := model.PredictBatch(data)
	res, err := baselines.TFPython(d, "fact", "id", names, model, device.NewCPU())
	if err != nil {
		t.Fatal(err)
	}
	for i, id := range res.IDs {
		if !closeEnough(res.Predictions[i][0], ref[id][0]) {
			t.Fatalf("id %d: got %v want %v", id, res.Predictions[i][0], ref[id][0])
		}
	}
}

// collectPreds drains an operator built over the fact table and matches
// predictions against the reference by id.
func collectPreds(t *testing.T, op exec.Operator, ref [][]float32, rows, outDim int) {
	t.Helper()
	got, err := exec.Collect(op)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != rows {
		t.Fatalf("got %d rows, want %d", got.Len(), rows)
	}
	base := got.Schema.Len() - outDim
	for r := 0; r < got.Len(); r++ {
		id := got.Vecs[0].Int64s()[r]
		for k := 0; k < outDim; k++ {
			gotV := got.Vecs[base+k].Float32s()[r]
			if !closeEnough(gotV, ref[id][k]) {
				t.Fatalf("id %d output %d: got %v want %v", id, k, gotV, ref[id][k])
			}
		}
	}
}

func TestCAPIOperator(t *testing.T) {
	for _, gpu := range []bool{false, true} {
		tbl, data, _ := buildFact(t, 3000, 4, 4, 3)
		model := nn.NewDenseModel("m", 4, 32, 2, 1, 13)
		ref := model.PredictBatch(data)
		var dev device.Device = device.NewCPU()
		if gpu {
			dev = device.NewGPU(device.DefaultGPUConfig())
		}
		op, err := baselines.ParallelScan(tbl, func(child exec.Operator) (exec.Operator, error) {
			return baselines.NewCAPIOperator(child, model, dev, []int{1, 2, 3, 4})
		}, 4)
		if err != nil {
			t.Fatal(err)
		}
		collectPreds(t, op, ref, 3000, 1)
	}
}

func TestCAPIOperatorLSTM(t *testing.T) {
	tbl, data, _ := buildFact(t, 1200, 3, 3, 4)
	model := nn.NewLSTMModel("lm", 3, 16, 21)
	ref := model.PredictBatch(data)
	op, err := baselines.ParallelScan(tbl, func(child exec.Operator) (exec.Operator, error) {
		return baselines.NewCAPIOperator(child, model, device.NewCPU(), []int{1, 2, 3})
	}, 3)
	if err != nil {
		t.Fatal(err)
	}
	collectPreds(t, op, ref, 1200, 1)
}

func TestUDFOperatorVectorizedAndScalar(t *testing.T) {
	for _, vectorized := range []bool{true, false} {
		tbl, data, _ := buildFact(t, 1500, 4, 2, 5)
		model := nn.NewDenseModel("m", 4, 8, 1, 2, 17)
		ref := model.PredictBatch(data)
		op, err := baselines.ParallelScan(tbl, func(child exec.Operator) (exec.Operator, error) {
			return baselines.NewUDFOperator(child, model, []int{1, 2, 3, 4}, vectorized)
		}, 2)
		if err != nil {
			t.Fatal(err)
		}
		collectPreds(t, op, ref, 1500, 2)
	}
}

func TestUDFCallCounts(t *testing.T) {
	tbl, data, _ := buildFact(t, 100, 4, 1, 6)
	model := nn.NewDenseModel("m", 4, 4, 1, 1, 19)
	_ = data
	scan, err := exec.NewScan(tbl.Snapshot(), 0, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	op, err := baselines.NewUDFOperator(scan, model, []int{1, 2, 3, 4}, false)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := exec.Collect(op); err != nil {
		t.Fatal(err)
	}
	if op.Calls != 100 {
		t.Errorf("scalar UDF called %d times, want 100", op.Calls)
	}
	scan2, _ := exec.NewScan(tbl.Snapshot(), 0, nil, nil)
	op2, err := baselines.NewUDFOperator(scan2, model, []int{1, 2, 3, 4}, true)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := exec.Collect(op2); err != nil {
		t.Fatal(err)
	}
	if op2.Calls != 1 {
		t.Errorf("vectorized UDF called %d times, want 1", op2.Calls)
	}
}

// TestGPUAccountsTransfers verifies the simulated device charges PCIe
// traffic and kernel launches for the C-API GPU path.
func TestGPUAccountsTransfers(t *testing.T) {
	tbl, _, _ := buildFact(t, 2048, 4, 1, 7)
	model := nn.NewDenseModel("m", 4, 32, 2, 1, 23)
	gpu := device.NewGPU(device.DefaultGPUConfig())
	scan, _ := exec.NewScan(tbl.Snapshot(), 0, nil, nil)
	op, err := baselines.NewCAPIOperator(scan, model, gpu, []int{1, 2, 3, 4})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := exec.Collect(op); err != nil {
		t.Fatal(err)
	}
	st := gpu.Stats()
	if st.BytesH2D == 0 || st.BytesD2H == 0 || st.KernelLaunches == 0 || st.ModeledTime == 0 {
		t.Errorf("GPU accounting empty: %+v", st)
	}
	// Input uploads alone: ≥ 2048 rows × 4 cols × 4 bytes.
	if st.BytesH2D < 2048*4*4 {
		t.Errorf("H2D bytes %d below input volume", st.BytesH2D)
	}
}
