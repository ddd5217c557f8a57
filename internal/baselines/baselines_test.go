package baselines_test

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"time"

	"indbml/internal/baselines"
	"indbml/internal/core/modeljoin"
	"indbml/internal/core/relmodel"
	"indbml/internal/device"
	"indbml/internal/engine/db"
	"indbml/internal/engine/exec"
	"indbml/internal/engine/storage"
	"indbml/internal/engine/types"
	"indbml/internal/engine/vector"
	"indbml/internal/infersched"
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

// TestCAPIGPUAccounting pins what the simulated GPU charges for a C-API
// inference pass — launches, modeled time, transfer bytes — over a fixed
// dense and a fixed LSTM model, 1 524 rows in batches of 1 024 and 500,
// after the reset that follows the compile at Open. The values come from
// FLOPs and the device config, not from clocks, and they are the charges of
// the unfused runtime the baselines ran before (bias-matrix copy, sgemm,
// activation kernel) for the same pass, so the C-API GPU series of Fig. 8/9
// keep their device model.
func TestCAPIGPUAccounting(t *testing.T) {
	for _, tc := range []struct {
		model    *nn.Model
		launches int64
		modeled  time.Duration
		h2d, d2h int64
	}{
		{nn.NewDenseModel("m", 4, 32, 2, 1, 23), 16, 131150, 24384, 6096},
		{nn.NewLSTMModel("lm", 3, 16, 21), 126, 714185, 18288, 6096},
	} {
		in := tc.model.InputDim()
		tbl, _, _ := buildFact(t, 1524, in, 1, 7)
		scan, err := exec.NewScan(tbl.Snapshot(), 0, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		cols := make([]int, in)
		for i := range cols {
			cols[i] = i + 1
		}
		gpu := device.NewGPU(device.DefaultGPUConfig())
		op, err := baselines.NewCAPIOperator(scan, tc.model, gpu, cols)
		if err != nil {
			t.Fatal(err)
		}
		if err := op.Open(); err != nil {
			t.Fatal(err)
		}
		gpu.ResetStats()
		var batches []int
		for {
			b, err := op.Next()
			if err != nil {
				t.Fatal(err)
			}
			if b == nil {
				break
			}
			batches = append(batches, b.Len())
		}
		st := gpu.Stats()
		if err := op.Close(); err != nil {
			t.Fatal(err)
		}
		if fmt.Sprint(batches) != "[1024 500]" {
			t.Fatalf("%s: batches %v, want [1024 500]", tc.model.Name, batches)
		}
		if st.KernelLaunches != tc.launches || st.ModeledTime != tc.modeled || st.BytesH2D != tc.h2d || st.BytesD2H != tc.d2h {
			t.Errorf("%s: %d launches, %v modeled, %d B up, %d B down; want %d, %v, %d, %d", tc.model.Name,
				st.KernelLaunches, st.ModeledTime, st.BytesH2D, st.BytesD2H, tc.launches, tc.modeled, tc.h2d, tc.d2h)
		}
	}
}

// TestBaselinesRefuseWhatModelJoinRefuses: the C-API and both UDF operators
// check their input columns as MODEL JOIN does, with its error text: a
// VARCHAR input is refused, where the C-API would predict from whatever its
// staging buffer held, and so is an out-of-range column, which would panic
// in Next.
func TestBaselinesRefuseWhatModelJoinRefuses(t *testing.T) {
	schema := types.NewSchema(
		types.Column{Name: "id", Type: types.Int64},
		types.Column{Name: "s", Type: types.String},
		types.Column{Name: "x1", Type: types.Float32},
		types.Column{Name: "x2", Type: types.Float32},
		types.Column{Name: "x3", Type: types.Float32},
	)
	tbl := storage.NewTable("fact", schema, storage.Options{Partitions: 1})
	b := vector.NewBatch(schema, 3)
	for r := 0; r < 3; r++ {
		if err := b.AppendRow(types.Int64Datum(int64(r)), types.StringDatum("abc"),
			types.Float32Datum(1), types.Float32Datum(2), types.Float32Datum(3)); err != nil {
			t.Fatal(err)
		}
	}
	if err := tbl.Append(b); err != nil {
		t.Fatal(err)
	}
	model := nn.NewDenseModel("m", 4, 8, 1, 1, 3)
	_, meta, err := relmodel.Export(model, relmodel.ExportOptions{Partitions: 1})
	if err != nil {
		t.Fatal(err)
	}
	scan := func() exec.Operator {
		s, err := exec.NewScan(tbl.Snapshot(), 0, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	approaches := map[string]func(exec.Operator, []int) (exec.Operator, error){
		"C-API": func(c exec.Operator, cols []int) (exec.Operator, error) {
			return baselines.NewCAPIOperator(c, model, device.NewCPU(), cols)
		},
		"scalar UDF": func(c exec.Operator, cols []int) (exec.Operator, error) {
			return baselines.NewUDFOperator(c, model, cols, false)
		},
		"vectorized UDF": func(c exec.Operator, cols []int) (exec.Operator, error) {
			return baselines.NewUDFOperator(c, model, cols, true)
		},
	}
	// The planner holds a SQL MODEL JOIN to the same contract, in the same
	// words, before any operator is built.
	d := db.Open(db.Options{})
	d.RegisterTable(tbl)
	if _, err := d.RegisterModel(model, relmodel.ExportOptions{Partitions: 1}); err != nil {
		t.Fatal(err)
	}
	for _, cols := range [][]int{{1, 2, 3, 4}, {2, 3, 4, 9}, {2, 3, 4}} {
		_, mjErr := modeljoin.New(scan(), &modeljoin.SharedModel{Meta: meta}, cols, nil, infersched.Label{})
		if mjErr == nil {
			t.Fatalf("MODEL JOIN accepts columns %v", cols)
		}
		for name, build := range approaches {
			if _, err := build(scan(), cols); err == nil || err.Error() != mjErr.Error() {
				t.Errorf("%s over columns %v: error %v, want MODEL JOIN's %q", name, cols, err, mjErr)
			}
		}
		if slices.Max(cols) >= schema.Len() {
			continue // a SQL input names a column
		}
		names := make([]string, len(cols))
		for i, c := range cols {
			names[i] = schema.Col(c).Name
		}
		q := "SELECT * FROM fact MODEL JOIN m PREDICT (" + strings.Join(names, ", ") + ")"
		if _, err := d.Query(q); err == nil || err.Error() != mjErr.Error() {
			t.Errorf("%s: error %v, want MODEL JOIN's %q", q, err, mjErr)
		}
	}
}
