package costmodel

import (
	"testing"
	"time"

	"indbml/internal/core/relmodel"
	"indbml/internal/nn"
)

func shape(t *testing.T, m *nn.Model) Shape {
	t.Helper()
	_, meta, err := relmodel.Export(m, relmodel.ExportOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return ShapeOf(meta)
}

func TestShapeOfDense(t *testing.T) {
	s := shape(t, nn.NewDenseModel("m", 4, 32, 2, 1, 1))
	// Flops: 2·(4·32 + 32·32 + 32·1).
	want := int64(2 * (4*32 + 32*32 + 32))
	if s.FlopsPerTuple != want {
		t.Errorf("flops = %d, want %d", s.FlopsPerTuple, want)
	}
	if s.InputDim != 4 || s.OutputDim != 1 || s.Layers != 3 {
		t.Errorf("shape = %+v", s)
	}
	// Edges: input(4) + 4·32 + 32·32 + 32.
	if s.Edges != 4+128+1024+32 {
		t.Errorf("edges = %d", s.Edges)
	}
}

func TestCostIncreasesLinearlyWithModelSize(t *testing.T) {
	// The paper's observation (Sec. 7): cost grows linearly with model
	// size. Doubling depth roughly doubles the dominant compute term.
	p := DefaultParams()
	small := shape(t, nn.NewDenseModel("s", 4, 128, 2, 1, 1))
	big := shape(t, nn.NewDenseModel("b", 4, 128, 4, 1, 1))
	cs := p.ModelJoinCPU(small, 100_000).Compute
	cb := p.ModelJoinCPU(big, 100_000).Compute
	ratio := float64(cb) / float64(cs)
	flopRatio := float64(big.FlopsPerTuple) / float64(small.FlopsPerTuple)
	if ratio < flopRatio*0.99 || ratio > flopRatio*1.01 {
		t.Errorf("compute cost ratio %v, flop ratio %v", ratio, flopRatio)
	}
}

func TestCostIncreasesWithTuples(t *testing.T) {
	p := DefaultParams()
	s := shape(t, nn.NewDenseModel("m", 4, 32, 2, 1, 1))
	for _, f := range []func(Shape, int) Estimate{
		p.ModelJoinCPU, p.ModelJoinGPU, p.MLToSQL, p.UDF,
		func(sh Shape, n int) Estimate { return p.TFPython(sh, n, false) },
		func(sh Shape, n int) Estimate { return p.TFCAPI(sh, n, false) },
	} {
		if f(s, 200_000).Total() <= f(s, 10_000).Total() {
			t.Error("cost not monotone in tuple count")
		}
	}
}

func TestOrderingMatchesPaperFindings(t *testing.T) {
	p := DefaultParams()
	s := shape(t, nn.NewDenseModel("m", 4, 128, 4, 1, 1))
	const tuples = 400_000
	mj := p.ModelJoinCPU(s, tuples).Total()
	py := p.TFPython(s, tuples, false).Total()
	sqlCost := p.MLToSQL(s, tuples).Total()
	udf := p.UDF(s, tuples).Total()
	if !(mj < py) {
		t.Errorf("ModelJoin (%v) should beat TF(Python) (%v)", mj, py)
	}
	if !(py < sqlCost) {
		t.Errorf("TF(Python) (%v) should beat ML-To-SQL (%v) for a large dense model", py, sqlCost)
	}
	if !(mj < udf) {
		t.Errorf("ModelJoin (%v) should beat the UDF (%v)", mj, udf)
	}
}

func TestGPUCrossover(t *testing.T) {
	// Sec. 6.3: the GPU pays off for large models, not tiny ones. The
	// device advisor must therefore flip from cpu to gpu as the model
	// grows.
	p := DefaultParams()
	tiny := shape(t, nn.NewDenseModel("t", 4, 8, 1, 1, 1))
	huge := shape(t, nn.NewDenseModel("h", 4, 512, 8, 1, 1))
	if dev := p.Device(tiny, 1000); dev != "cpu" {
		t.Errorf("tiny model at 1k tuples routed to %s", dev)
	}
	if dev := p.Device(huge, 500_000); dev != "gpu" {
		t.Errorf("huge model at 500k tuples routed to %s", dev)
	}
}

func TestRankAndChoose(t *testing.T) {
	p := DefaultParams()
	s := shape(t, nn.NewDenseModel("m", 4, 512, 8, 1, 1))
	ranked := p.Rank(s, 500_000, true)
	if len(ranked) != 7 {
		t.Fatalf("rank returned %d choices", len(ranked))
	}
	for i := 1; i < len(ranked); i++ {
		if ranked[i].Cost.Total() < ranked[i-1].Cost.Total() {
			t.Fatal("rank not sorted")
		}
	}
	best := p.Choose(s, 500_000, true)
	if best.Approach != ranked[0].Approach {
		t.Error("choose disagrees with rank")
	}
	if best.Approach == ApproachMLToSQL {
		t.Error("ML-To-SQL predicted cheapest for the largest model — the model contradicts the paper")
	}
	// Without a GPU, no GPU approach may be chosen.
	for _, c := range p.Rank(s, 500_000, false) {
		if c.Approach == ApproachModelJoinGPU || c.Approach == ApproachTFCAPIGPU {
			t.Error("GPU approach ranked despite gpuAvailable=false")
		}
	}
}

func TestCalibrateProducesSaneParams(t *testing.T) {
	p := Calibrate()
	if p.CPUFlopsPerSec < 1e8 || p.CPUFlopsPerSec > 1e13 {
		t.Errorf("implausible calibrated throughput %v", p.CPUFlopsPerSec)
	}
	if p.EngineRowCost <= 0 || p.EngineRowCost > time.Millisecond {
		t.Errorf("implausible row cost %v", p.EngineRowCost)
	}
}

// TestKernelSpeedDoesNotMoveEngineCosts: calibration measures the gemm
// kernel and nothing else. The scalar engine constants must come out of
// Calibrate as they went in, and the ML-To-SQL vs ModelJoin ranking for a
// small and a large model must be the same whether the probe saw the old
// scalar kernel (~7 GFLOP/s) or a SIMD one — a faster gemm only ever helps
// ModelJoin.
func TestKernelSpeedDoesNotMoveEngineCosts(t *testing.T) {
	def, cal := DefaultParams(), Calibrate()
	if cal.EngineRowCost != def.EngineRowCost || cal.TupleOverhead != def.TupleOverhead ||
		cal.BuildPerEdge != def.BuildPerEdge || cal.BoxPerValue != def.BoxPerValue {
		t.Errorf("Calibrate scaled the scalar engine constants with the gemm rate: %+v", cal)
	}
	scalar, simd := cal, cal
	scalar.CPUFlopsPerSec, simd.CPUFlopsPerSec = 7e9, 130e9
	for _, m := range []*nn.Model{
		nn.NewDenseModel("small", 4, 32, 2, 1, 1),
		nn.NewDenseModel("wide", 4, 256, 4, 1, 1),
	} {
		s := shape(t, m)
		for _, tuples := range []int{1_000, 100_000} {
			var sqlFirst [2]bool
			for i, p := range []Params{scalar, simd} {
				sqlFirst[i] = p.MLToSQL(s, tuples).Total() < p.ModelJoinCPU(s, tuples).Total()
			}
			if sqlFirst[0] != sqlFirst[1] {
				t.Errorf("%s over %d tuples: ML-To-SQL ranks first = %v with the scalar kernel, %v with SIMD",
					m.Name, tuples, sqlFirst[0], sqlFirst[1])
			}
		}
	}
}

func TestLSTMShape(t *testing.T) {
	s := shape(t, nn.NewLSTMModel("lm", 3, 32, 1))
	if s.FlopsPerTuple <= 0 || s.Edges < 32*32 {
		t.Errorf("lstm shape wrong: %+v", s)
	}
	// LSTM flops per tuple exceed a same-width dense layer's (Sec. 6.2.1:
	// "the computation of a LSTM layer is more complex than a dense
	// layer").
	d := shape(t, nn.NewDenseModel("d", 3, 32, 1, 1, 1))
	if s.FlopsPerTuple <= d.FlopsPerTuple {
		t.Errorf("lstm flops %d not above dense flops %d", s.FlopsPerTuple, d.FlopsPerTuple)
	}
}
