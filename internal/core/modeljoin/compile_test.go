package modeljoin

import (
	"math"
	"math/rand"
	"testing"

	"indbml/internal/device"
	"indbml/internal/nn"
)

// randRows draws n rows of dim values in [-1, 1), as nested rows for nn and
// flattened row-major for Compiled.Run.
func randRows(rng *rand.Rand, n, dim int) ([][]float32, []float32) {
	rows := make([][]float32, n)
	flat := make([]float32, 0, n*dim)
	for i := range rows {
		rows[i] = make([]float32, dim)
		for j := range rows[i] {
			rows[i][j] = rng.Float32()*2 - 1
		}
		flat = append(flat, rows[i]...)
	}
	return rows, flat
}

// compiledMatchesReference runs n rows through c and checks them against
// m's reference forward pass.
func compiledMatchesReference(t *testing.T, c *Compiled, m *nn.Model, rng *rand.Rand, n int) {
	t.Helper()
	in, out := m.InputDim(), m.OutputDim()
	rows, flat := randRows(rng, n, in)
	ref := m.PredictBatch(rows)
	got := make([]float32, n*out)
	if err := c.Run(flat, n, got); err != nil {
		t.Fatal(err)
	}
	for i := range rows {
		for k := 0; k < out; k++ {
			if math.Abs(float64(got[i*out+k]-ref[i][k])) > 1e-5 {
				t.Fatalf("%d rows, row %d out %d: %v vs %v", n, i, k, got[i*out+k], ref[i][k])
			}
		}
	}
}

func TestCompileMatchesReferenceDense(t *testing.T) {
	m := nn.NewDenseModel("m", 4, 16, 3, 2, 1)
	for _, dev := range []device.Device{device.NewCPU(), device.NewGPU(device.DefaultGPUConfig())} {
		c, err := Compile(m, dev)
		if err != nil {
			t.Fatal(err)
		}
		compiledMatchesReference(t, c, m, rand.New(rand.NewSource(2)), 700)
		c.Close()
	}
}

func TestCompileMatchesReferenceLSTM(t *testing.T) {
	m := nn.NewLSTMModel("lm", 3, 8, 3)
	for _, dev := range []device.Device{device.NewCPU(), device.NewGPU(device.DefaultGPUConfig())} {
		c, err := Compile(m, dev)
		if err != nil {
			t.Fatal(err)
		}
		compiledMatchesReference(t, c, m, rand.New(rand.NewSource(3)), 300)
		c.Close()
	}
}

// TestCompileReusableAcrossBatchSizes: one compiled model serves batches of
// any size, above vector.Size too, and leaves no device memory behind.
func TestCompileReusableAcrossBatchSizes(t *testing.T) {
	m := nn.NewDenseModel("m", 4, 8, 1, 1, 4)
	dev := device.NewGPU(device.DefaultGPUConfig())
	c, err := Compile(m, dev)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	for _, n := range []int{1, 100, 1024, 7, 2048} {
		compiledMatchesReference(t, c, m, rng, n)
	}
	c.Close()
	if b := dev.Stats().BytesAllocated; b != 0 {
		t.Errorf("%d device bytes allocated after Close", b)
	}
}

func TestCompileBufferValidation(t *testing.T) {
	c, err := Compile(nn.NewDenseModel("m", 4, 8, 1, 1, 6), device.NewCPU())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Run(make([]float32, 3), 1, make([]float32, 1)); err == nil {
		t.Error("short input should be rejected")
	}
	if err := c.Run(make([]float32, 4), 1, make([]float32, 2)); err == nil {
		t.Error("wrong output buffer should be rejected")
	}
	if err := c.Run(nil, 0, nil); err != nil {
		t.Errorf("empty batch should be a no-op: %v", err)
	}
}

func TestCompileRejectsInvalidModels(t *testing.T) {
	if _, err := Compile(&nn.Model{Name: "empty"}, device.NewCPU()); err == nil {
		t.Error("empty model should be rejected")
	}
	multi := &nn.Model{Name: "mv", Layers: []nn.Layer{nn.NewLSTM(2, 4, 3), nn.NewDense(4, 1, nn.Linear)}}
	if _, err := Compile(multi, device.NewCPU()); err == nil {
		t.Error("multivariate LSTM should be rejected")
	}
	late := &nn.Model{Name: "late", Layers: []nn.Layer{nn.NewDense(3, 3, nn.ReLU), nn.NewLSTM(1, 4, 3)}}
	if _, err := Compile(late, device.NewCPU()); err == nil {
		t.Error("an LSTM after the first layer should be rejected")
	}
}

// TestCompileDims: the output width comes from the last layer, for a dense
// and an LSTM-only model.
func TestCompileDims(t *testing.T) {
	for _, tc := range []struct {
		m       *nn.Model
		in, out int
	}{
		{nn.NewDenseModel("m", 4, 8, 2, 3, 7), 4, 3},
		{&nn.Model{Name: "l", Layers: []nn.Layer{nn.NewLSTM(1, 5, 3)}}, 3, 5},
	} {
		c, err := Compile(tc.m, device.NewCPU())
		if err != nil {
			t.Fatal(err)
		}
		if c.InputDim() != tc.in || c.OutputDim() != tc.out {
			t.Errorf("%s: dims %d→%d, want %d→%d", tc.m.Name, c.InputDim(), c.OutputDim(), tc.in, tc.out)
		}
		c.Close()
	}
}
