// Package costmodel implements the inference cost model the paper names as
// the important missing piece for optimizing queries that contain a
// ModelJoin (Sec. 7: "In order to optimize queries containing such a model
// inference, a cost model is an important missing factor that should be
// investigated in the future. The cost for inference could thereby be based
// on an investigation of the model structure, as our evaluation showed that
// costs increase linearly with model size.").
//
// The model predicts per-approach inference cost from exactly those inputs:
// the model structure (per-layer FLOPs and edge counts derived from the
// relational representation's metadata) and the fact-table cardinality.
// The gemm throughput is calibrated on the host by a short micro-probe, so
// compute estimates track the machine the query would run on. An optimizer
// can use Choose to pick the cheapest integration — e.g. routing small models
// to the CPU operator and large ones to the GPU, the decision rule of
// Sec. 6.3.
package costmodel

import (
	"sort"
	"time"

	"indbml/internal/blas"
	"indbml/internal/core/relmodel"
	"indbml/internal/device"
)

// Params are the calibrated host constants.
type Params struct {
	// CPUFlopsPerSec is the measured dense-gemm throughput of the host.
	CPUFlopsPerSec float64
	// EngineRowCost is the per-joined-row cost of the generic operator
	// pipeline (join probe + aggregation update), governing ML-To-SQL.
	EngineRowCost time.Duration
	// TupleOverhead is the per-tuple cost of moving a row through a
	// vectorized operator (scan/convert/emit).
	TupleOverhead time.Duration
	// BuildPerEdge is the model build phase's per-edge parse cost.
	BuildPerEdge time.Duration
	// TransferPerRowByte is the per-byte cost of exporting rows over the
	// ODBC wire, including (de)serialization on both ends.
	TransferPerRowByte time.Duration
	// BoxPerValue is the cost of materializing one boxed value in the
	// Python environment (TF(Python) decode, UDF marshalling).
	BoxPerValue time.Duration
	// GPU is the device performance model (shared with the simulation).
	GPU device.GPUConfig
}

// DefaultParams returns conservative constants for a commodity core; use
// Calibrate for host-accurate numbers.
func DefaultParams() Params {
	return Params{
		CPUFlopsPerSec:     4e9,
		EngineRowCost:      120 * time.Nanosecond,
		TupleOverhead:      40 * time.Nanosecond,
		BuildPerEdge:       60 * time.Nanosecond,
		TransferPerRowByte: 2 * time.Nanosecond,
		BoxPerValue:        25 * time.Nanosecond,
		GPU:                device.DefaultGPUConfig(),
	}
}

// Calibrate measures the host's gemm throughput with a short probe; only
// CPUFlopsPerSec moves. The row, tuple, edge and boxing constants describe
// scalar engine code, which a faster SIMD kernel does not speed up, so they
// keep their defaults instead of being scaled by the gemm rate.
func Calibrate() Params {
	p := DefaultParams()
	const m, k, n = 256, 256, 256
	a, b, c := blas.NewMat(m, k), blas.NewMat(k, n), blas.NewMat(m, n)
	for i := range a.Data {
		a.Data[i] = 1.0 / float32(i+1)
	}
	for i := range b.Data {
		b.Data[i] = float32(i%7) * 0.25
	}
	// Warm up once, then time a few rounds.
	blas.Sgemm(a, b, c)
	const rounds = 4
	start := time.Now()
	for i := 0; i < rounds; i++ {
		blas.Sgemm(a, b, c)
	}
	elapsed := time.Since(start)
	if elapsed > 0 {
		p.CPUFlopsPerSec = float64(rounds) * float64(blas.FlopsGemm(m, k, n)) / elapsed.Seconds()
	}
	return p
}

// Shape summarizes the model structure the cost formulas consume; it is
// derived from the catalog metadata (Sec. 5.5), so estimation needs no
// access to the weights themselves.
type Shape struct {
	// FlopsPerTuple is the forward-pass FLOP count for one input row.
	FlopsPerTuple int64
	// Edges is the relational representation's row count (build-phase and
	// ML-To-SQL join volume).
	Edges int64
	// InputDim is the number of model input columns.
	InputDim int
	// OutputDim is the number of prediction columns.
	OutputDim int
	// Layers is the number of computational layers (nesting depth of the
	// generated SQL).
	Layers int
}

// ShapeOf derives the cost-relevant structure from model metadata.
func ShapeOf(meta *relmodel.Meta) Shape {
	s := Shape{InputDim: meta.InputDim(), OutputDim: meta.OutputDim()}
	prev := meta.Layers[0].Units
	for _, lm := range meta.Layers[1:] {
		s.Layers++
		switch lm.Kind {
		case "dense":
			s.FlopsPerTuple += 2 * int64(prev) * int64(lm.Units)
			s.Edges += int64(prev) * int64(lm.Units)
			prev = lm.Units
		case "lstm":
			t, w, f := int64(lm.TimeSteps), int64(lm.Units), int64(lm.Features)
			// Per step: 4 gate gemms over kernel (f×W) and recurrent (W×W)
			// kernels plus ~6 elementwise passes.
			s.FlopsPerTuple += t * (2*f*4*w + 2*w*4*w + 6*w)
			s.Edges += w * w
			prev = lm.Units
		}
	}
	s.Edges += int64(meta.Layers[0].Units) // artificial input edges
	return s
}

// Estimate is a decomposed cost prediction.
type Estimate struct {
	// Build is the one-time model build cost (parse edges, allocate,
	// upload).
	Build time.Duration
	// Compute is the arithmetic cost of the forward passes.
	Compute time.Duration
	// Transfer covers data movement: PCIe for GPU variants, the ODBC wire
	// for the external baseline.
	Transfer time.Duration
	// Engine is the relational machinery: per-tuple operator overhead, or
	// per-joined-row costs for ML-To-SQL.
	Engine time.Duration
}

// Total sums the components.
func (e Estimate) Total() time.Duration { return e.Build + e.Compute + e.Transfer + e.Engine }

// ModelJoinCPU predicts the native operator on the host (Sec. 5).
func (p Params) ModelJoinCPU(s Shape, tuples int) Estimate {
	return Estimate{
		Build:   time.Duration(float64(s.Edges) * float64(p.BuildPerEdge)),
		Compute: time.Duration(float64(s.FlopsPerTuple) * float64(tuples) / p.CPUFlopsPerSec * float64(time.Second)),
		Engine:  time.Duration(tuples) * p.TupleOverhead,
	}
}

// ModelJoinGPU predicts the GPU variant: build on host plus one weight
// upload, per-batch input/output transfers, kernel launches, and modeled
// gemm throughput.
func (p Params) ModelJoinGPU(s Shape, tuples int) Estimate {
	weights := s.Edges * 4
	inBytes := int64(tuples) * int64(s.InputDim) * 4
	outBytes := int64(tuples) * int64(s.OutputDim) * 4
	batches := (tuples + 1023) / 1024
	kernels := int64(batches) * int64(s.Layers) * 2 // bias copy + gemm per layer per batch
	return Estimate{
		Build: time.Duration(float64(s.Edges)*float64(p.BuildPerEdge)) +
			time.Duration(float64(weights)/p.GPU.PCIeBandwidth*float64(time.Second)),
		Compute: time.Duration(float64(s.FlopsPerTuple)*float64(tuples)/p.GPU.GemmThroughput*float64(time.Second)) +
			time.Duration(kernels)*p.GPU.KernelLaunch,
		Transfer: time.Duration(float64(inBytes+outBytes)/p.GPU.PCIeBandwidth*float64(time.Second)) +
			time.Duration(2*batches)*p.GPU.TransferLatency,
		Engine: time.Duration(tuples) * p.TupleOverhead,
	}
}

// TFCAPI predicts the runtime integration: ModelJoin plus the
// columnar↔row-major conversion both ways.
func (p Params) TFCAPI(s Shape, tuples int, gpu bool) Estimate {
	var e Estimate
	if gpu {
		e = p.ModelJoinGPU(s, tuples)
	} else {
		e = p.ModelJoinCPU(s, tuples)
	}
	conversions := int64(tuples) * int64(s.InputDim+s.OutputDim)
	e.Engine += time.Duration(float64(conversions) * float64(p.TupleOverhead) / 4)
	return e
}

// MLToSQL predicts the generated-SQL path: every layer's forward join
// produces tuples × edges(layer) rows, each paying the generic operator
// row cost — the quadratic intermediate-volume growth of Sec. 6.2.1.
func (p Params) MLToSQL(s Shape, tuples int) Estimate {
	joinedRows := s.Edges * int64(tuples)
	return Estimate{
		Engine: time.Duration(float64(joinedRows) * float64(p.EngineRowCost)),
	}
}

// TFPython predicts the external baseline: serialize every row over the
// wire, box every value, then compute at native speed client-side.
func (p Params) TFPython(s Shape, tuples int, gpu bool) Estimate {
	rowBytes := int64(s.InputDim)*5 + 9 // value tags + id, wire format
	values := int64(tuples) * int64(s.InputDim+1)
	compute := time.Duration(float64(s.FlopsPerTuple) * float64(tuples) / p.CPUFlopsPerSec * float64(time.Second))
	if gpu {
		compute = time.Duration(float64(s.FlopsPerTuple)*float64(tuples)/p.GPU.GemmThroughput*float64(time.Second)) +
			time.Duration(float64(int64(tuples)*int64(s.InputDim)*4)/p.GPU.PCIeBandwidth*float64(time.Second))
	}
	return Estimate{
		Transfer: time.Duration(float64(int64(tuples)*rowBytes) * float64(p.TransferPerRowByte)),
		Engine:   time.Duration(values) * p.BoxPerValue,
		Compute:  compute,
	}
}

// UDF predicts the vectorized Python-UDF integration: boxing both ways plus
// native compute.
func (p Params) UDF(s Shape, tuples int) Estimate {
	values := int64(tuples) * int64(s.InputDim+s.OutputDim)
	return Estimate{
		Compute: time.Duration(float64(s.FlopsPerTuple) * float64(tuples) / p.CPUFlopsPerSec * float64(time.Second)),
		Engine:  time.Duration(2*values)*p.BoxPerValue + time.Duration(tuples)*p.TupleOverhead,
	}
}

// Approach names a costed integration.
type Approach string

// Costed approaches.
const (
	ApproachModelJoinCPU Approach = "ModelJoin_CPU"
	ApproachModelJoinGPU Approach = "ModelJoin_GPU"
	ApproachTFCAPICPU    Approach = "TF_CAPI_CPU"
	ApproachTFCAPIGPU    Approach = "TF_CAPI_GPU"
	ApproachTFPython     Approach = "TF_Python"
	ApproachUDF          Approach = "UDF"
	ApproachMLToSQL      Approach = "ML-To-SQL"
)

// Choice is one ranked alternative.
type Choice struct {
	Approach Approach
	Cost     Estimate
}

// Rank orders all integrations by predicted cost for the given model shape
// and cardinality. gpuAvailable excludes GPU variants when false.
func (p Params) Rank(s Shape, tuples int, gpuAvailable bool) []Choice {
	choices := []Choice{
		{ApproachModelJoinCPU, p.ModelJoinCPU(s, tuples)},
		{ApproachTFCAPICPU, p.TFCAPI(s, tuples, false)},
		{ApproachTFPython, p.TFPython(s, tuples, false)},
		{ApproachUDF, p.UDF(s, tuples)},
		{ApproachMLToSQL, p.MLToSQL(s, tuples)},
	}
	if gpuAvailable {
		choices = append(choices,
			Choice{ApproachModelJoinGPU, p.ModelJoinGPU(s, tuples)},
			Choice{ApproachTFCAPIGPU, p.TFCAPI(s, tuples, true)},
		)
	}
	sort.SliceStable(choices, func(i, j int) bool {
		return choices[i].Cost.Total() < choices[j].Cost.Total()
	})
	return choices
}

// Choose returns the predicted-cheapest integration.
func (p Params) Choose(s Shape, tuples int, gpuAvailable bool) Choice {
	return p.Rank(s, tuples, gpuAvailable)[0]
}

// Device implements the Sec. 6.3 decision rule in isolation: should this
// ModelJoin run on the GPU?
func (p Params) Device(s Shape, tuples int) string {
	if p.ModelJoinGPU(s, tuples).Total() < p.ModelJoinCPU(s, tuples).Total() {
		return "gpu"
	}
	return "cpu"
}
