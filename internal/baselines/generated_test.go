package baselines_test

import (
	"fmt"
	"math"
	"math/rand"
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
	"indbml/internal/nn"
)

// TestGeneratedApproachesAgree runs random models — dense (1–4 inputs,
// width 1–40, depth 1–3, any activation, 1–2 outputs) or univariate LSTM —
// on the CPU or GPU[sim] over a random fact table (1–4 partitions, input
// columns of every numeric type, no NULLs) through MODEL JOIN, the C-API
// operator, the scalar and the vectorized UDF and TF(Python). All five run
// one compiled forward pass, and a row's result does not depend on the
// batch it travelled in, so every baseline's predictions must equal MODEL
// JOIN's bit for bit, by id; TF(Python)'s inputs cross the ODBC text codec,
// which writes REAL as the shortest text that parses back to the same
// float32 and DOUBLE likewise, so they arrive unchanged. MODEL JOIN must
// also match nn within 1e-4.
func TestGeneratedApproachesAgree(t *testing.T) {
	seed := time.Now().UnixNano()
	t.Logf("seed %d", seed)
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < 16; i++ {
		approachesCase(t, rng)
	}
}

func approachesCase(t *testing.T, rng *rand.Rand) {
	t.Helper()
	var model *nn.Model
	var desc string
	if rng.Intn(3) == 0 {
		steps, width := 2+rng.Intn(5), 1+rng.Intn(24)
		model = nn.NewLSTMModel("g", steps, width, rng.Int63())
		desc = fmt.Sprintf("lstm width=%d steps=%d", width, steps)
	} else {
		inputs, width, depth, outputs := 1+rng.Intn(4), 1+rng.Intn(40), 1+rng.Intn(3), 1+rng.Intn(2)
		model = nn.NewDenseModel("g", inputs, width, depth, outputs, rng.Int63())
		act := []nn.Activation{nn.Linear, nn.ReLU, nn.Sigmoid, nn.Tanh}[rng.Intn(4)]
		for _, l := range model.Layers[:depth] {
			l.(*nn.Dense).Act = act
		}
		desc = fmt.Sprintf("dense inputs=%d width=%d depth=%d act=%s outputs=%d", inputs, width, depth, act, outputs)
	}
	parts, rows := 1+rng.Intn(4), 1+rng.Intn(3000)
	d := db.Open(db.Options{DefaultPartitions: parts, Parallelism: parts})
	var dev device.Device = d.CPU()
	if rng.Intn(2) == 0 {
		dev = d.GPU()
	}
	desc += fmt.Sprintf(", %d rows in %d partitions on %s", rows, parts, dev.Name())

	tbl, data, names := randomFact(t, rng, rows, model.InputDim(), parts)
	d.RegisterTable(tbl)
	if _, err := d.RegisterModel(model, relmodel.ExportOptions{Partitions: parts}); err != nil {
		t.Fatalf("%s: %v", desc, err)
	}
	ref := model.PredictBatch(data)
	outDim := model.OutputDim()

	var predCols []string
	for _, c := range modeljoin.PredictionColumns(outDim) {
		predCols = append(predCols, c.Name)
	}
	devName := "cpu"
	if dev.IsGPU() {
		devName = "gpu"
	}
	res, err := d.Query("SELECT id, " + strings.Join(predCols, ", ") + " FROM fact MODEL JOIN g PREDICT (" +
		strings.Join(names, ", ") + ") USING DEVICE '" + devName + "'")
	if err != nil {
		t.Fatalf("%s: MODEL JOIN: %v", desc, err)
	}
	want := byID(t, desc+": MODEL JOIN", res, 1, outDim, rows)
	for id, p := range want {
		for j, v := range p {
			if r := float64(ref[id][j]); math.Abs(float64(v)-r) > 1e-4+1e-4*math.Abs(r) {
				t.Fatalf("%s: MODEL JOIN id %d output %d: %v, nn %v", desc, id, j, v, r)
			}
		}
	}

	cols := make([]int, len(names))
	for i := range cols {
		cols[i] = i + 1
	}
	operators := []struct {
		name string
		wrap func(exec.Operator) (exec.Operator, error)
	}{
		{"C-API", func(c exec.Operator) (exec.Operator, error) {
			return baselines.NewCAPIOperator(c, model, dev, cols)
		}},
		{"scalar UDF", func(c exec.Operator) (exec.Operator, error) {
			return baselines.NewUDFOperator(c, model, cols, false)
		}},
		{"vectorized UDF", func(c exec.Operator) (exec.Operator, error) {
			return baselines.NewUDFOperator(c, model, cols, true)
		}},
	}
	for _, o := range operators {
		op, err := baselines.ParallelScan(tbl, o.wrap, parts)
		if err != nil {
			t.Fatalf("%s: %s: %v", desc, o.name, err)
		}
		got, err := exec.Collect(op)
		if err != nil {
			t.Fatalf("%s: %s: %v", desc, o.name, err)
		}
		sameBits(t, desc+": "+o.name, byID(t, desc+": "+o.name, got, got.Schema.Len()-outDim, outDim, rows), want)
	}

	py, err := baselines.TFPython(d, "fact", "id", names, model, dev)
	if err != nil {
		t.Fatalf("%s: TF(Python): %v", desc, err)
	}
	pyByID := make(map[int64][]float32, len(py.IDs))
	for i, id := range py.IDs {
		pyByID[id] = py.Predictions[i]
	}
	if len(pyByID) != rows {
		t.Fatalf("%s: TF(Python): %d ids, want %d", desc, len(pyByID), rows)
	}
	sameBits(t, desc+": TF(Python)", pyByID, want)
}

// randomFact builds table "fact": a BIGINT id 0…rows-1 and in input columns
// x0… of random numeric types — REAL and DOUBLE in [-2, 2), INTEGER and
// BIGINT in [-8, 8] — returning the inputs as float32 rows for nn.
func randomFact(t *testing.T, rng *rand.Rand, rows, in, parts int) (*storage.Table, [][]float32, []string) {
	t.Helper()
	kinds := []types.T{types.Float32, types.Float64, types.Int32, types.Int64}
	cols := []types.Column{{Name: "id", Type: types.Int64}}
	names := make([]string, in)
	for i := range names {
		names[i] = fmt.Sprintf("x%d", i)
		cols = append(cols, types.Column{Name: names[i], Type: kinds[rng.Intn(len(kinds))]})
	}
	schema := types.NewSchema(cols...)
	tbl := storage.NewTable("fact", schema, storage.Options{Partitions: parts})
	b := vector.NewBatch(schema, rows)
	data := make([][]float32, rows)
	for r := range data {
		data[r] = make([]float32, in)
		row := []types.Datum{types.Int64Datum(int64(r))}
		for c := range data[r] {
			var v types.Datum
			switch cols[c+1].Type {
			case types.Float32:
				f := rng.Float32()*4 - 2
				v, data[r][c] = types.Float32Datum(f), f
			case types.Float64:
				f := rng.Float64()*4 - 2
				v, data[r][c] = types.Float64Datum(f), float32(f)
			case types.Int32:
				i := rng.Intn(17) - 8
				v, data[r][c] = types.Int32Datum(int32(i)), float32(i)
			default:
				i := rng.Intn(17) - 8
				v, data[r][c] = types.Int64Datum(int64(i)), float32(i)
			}
			row = append(row, v)
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

// byID maps each row's id (column 0) to its outDim predictions, which start
// at column first, and checks every id 0…rows-1 appears once.
func byID(t *testing.T, desc string, b *vector.Batch, first, outDim, rows int) map[int64][]float32 {
	t.Helper()
	if b.Len() != rows {
		t.Fatalf("%s: %d rows, want %d", desc, b.Len(), rows)
	}
	m := make(map[int64][]float32, rows)
	for r := 0; r < b.Len(); r++ {
		p := make([]float32, outDim)
		for j := range p {
			p[j] = b.Vecs[first+j].Float32s()[r]
		}
		m[b.Vecs[0].Int64s()[r]] = p
	}
	if len(m) != rows {
		t.Fatalf("%s: %d distinct ids, want %d", desc, len(m), rows)
	}
	return m
}

// sameBits checks got's predictions equal want's bit for bit, id by id.
func sameBits(t *testing.T, desc string, got, want map[int64][]float32) {
	t.Helper()
	for id, w := range want {
		g, ok := got[id]
		if !ok || len(g) != len(w) {
			t.Fatalf("%s: id %d: predictions %v, want %v", desc, id, g, w)
		}
		for j := range w {
			if math.Float32bits(g[j]) != math.Float32bits(w[j]) {
				t.Fatalf("%s: id %d output %d: %v, MODEL JOIN %v", desc, id, j, g[j], w[j])
			}
		}
	}
}
