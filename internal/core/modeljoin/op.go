package modeljoin

import (
	"context"
	"fmt"
	"sync/atomic"
	"time"

	"indbml/internal/blas"
	"indbml/internal/engine/exec"
	"indbml/internal/engine/types"
	"indbml/internal/engine/vector"
	"indbml/internal/infersched"
	"indbml/internal/nn"
	"indbml/internal/trace"
)

// Operator is the native ModelJoin query operator (Fig. 5). It follows the
// Volcano open/next/close protocol: the first Next triggers the (shared)
// build phase; every subsequent Next converts one input batch into the
// model's input layout (Sec. 5.3), runs the vectorized inference (Sec. 5.4)
// and returns the batch extended with prediction columns. All non-input
// child columns pass through untouched — the native operator needs no late
// projection (Sec. 5.3).
type Operator struct {
	Child  exec.Operator
	Shared *SharedModel
	// InputCols are child column ordinals fed to the model, in input order.
	InputCols []int

	schema *types.Schema
	model  *builtModel

	// Batched-inference scheduling. When the engine wires a scheduler in
	// (SetScheduler) and the statement's policy doesn't opt out, dense
	// forward passes are submitted to the per-(model, device) queue instead
	// of driving the device directly, so concurrent queries over the same
	// cached artifact coalesce into one packed sgemm.
	sched      *infersched.Scheduler
	schedLabel infersched.Label
	qctx       context.Context
	policy     infersched.Policy

	// Inference scratch, checked out of the built model's pool at Open:
	// host gather buffer, device activations per layer boundary, LSTM state.
	scratch *inferScratch
	staging []float32  // = scratch.staging
	bufs    []blas.Mat // = scratch.bufs
	lstm    *lstmScratch

	// Tracing. The plan builder hands the operator its span (shared with
	// the sibling partition instances) via SetSpan before Open; Open then
	// resolves the phase counters once, so the inference loop pays a single
	// atomic add per timed event and nothing at all when untraced.
	span         *trace.Span
	cacheHit     bool // per-query artifact-cache verdict (see NoteCacheLookup)
	cacheSeen    bool
	ctrInfer     *atomic.Int64 // infer_ns: full forward-pass time
	ctrSgemm     *atomic.Int64 // sgemm_ns: device matrix-multiply time (subset of infer)
	ctrFlops     *atomic.Int64 // sgemm_flops
	ctrMarshal   *atomic.Int64 // marshal_ns: column gather/scatter conversion time
	ctrBatchWait *atomic.Int64 // batch_wait_ns: time spent in scheduler coalesce windows
	ctrBusy      *atomic.Int64 // sgemm_busy_ns: gemm kernel time summed over BLAS workers
}

// SetSpan implements trace.SpanCarrier.
func (o *Operator) SetSpan(sp *trace.Span) { o.span = sp }

// NoteCacheLookup records whether this query found the model in the
// cross-query artifact cache (hit) or had to insert it (miss). Called by
// the catalog when it resolves the SharedModel, before SetSpan/Open.
func (o *Operator) NoteCacheLookup(hit bool) { o.cacheHit, o.cacheSeen = hit, true }

// SetScheduler routes this operator's dense forward passes through the
// engine's batched inference scheduler. Called by the catalog alongside
// NewModelJoin; label names the (model, device) queue for observability.
// LSTM-first models keep the direct path regardless.
func (o *Operator) SetScheduler(s *infersched.Scheduler, label infersched.Label) {
	o.sched, o.schedLabel = s, label
}

// SetQueryContext hands the operator the statement's context, carrying
// cancellation plus the per-session scheduling policy and admission-slot
// yielder (see infersched.WithPolicy / WithYielder). Called by the plan
// builder before Open.
func (o *Operator) SetQueryContext(ctx context.Context) {
	o.qctx = ctx
	o.policy = infersched.PolicyFrom(ctx)
}

// lstmScratch holds the per-operator LSTM working set of Listing 5.
type lstmScratch struct {
	x    blas.Mat // T×batch series, device (rows are time steps)
	h, c blas.Mat
	z    [4]blas.Mat
	tmp  blas.Mat
}

// New constructs a ModelJoin over child. The operator's schema is the
// child's columns followed by the prediction columns.
func New(child exec.Operator, shared *SharedModel, inputCols []int) (*Operator, error) {
	meta := shared.Meta
	want := meta.InputDim()
	if ts := meta.TimeSteps(); ts > 0 {
		want = ts
	}
	if len(inputCols) != want {
		return nil, fmt.Errorf("modeljoin: model %s expects %d input columns, got %d", meta.Name, want, len(inputCols))
	}
	childSchema := child.Schema()
	for _, c := range inputCols {
		if c < 0 || c >= childSchema.Len() {
			return nil, fmt.Errorf("modeljoin: input column %d out of range", c)
		}
		if !childSchema.Col(c).Type.IsNumeric() {
			return nil, fmt.Errorf("modeljoin: input column %q is not numeric", childSchema.Col(c).Name)
		}
	}
	cols := childSchema.Columns()
	if meta.OutputDim() == 1 {
		cols = append(cols, types.Column{Name: "prediction", Type: types.Float32})
	} else {
		for i := 0; i < meta.OutputDim(); i++ {
			cols = append(cols, types.Column{Name: fmt.Sprintf("prediction_%d", i), Type: types.Float32})
		}
	}
	return &Operator{
		Child:  child,
		Shared: shared, InputCols: inputCols,
		schema: types.NewSchema(cols...),
	}, nil
}

// Schema implements exec.Operator.
func (o *Operator) Schema() *types.Schema { return o.schema }

// Open implements exec.Operator: it runs (or joins) the build phase and
// checks an inference working set out of the model's scratch pool (Sec. 5.1:
// open() allocates weight and working memory).
func (o *Operator) Open() error {
	if err := o.Child.Open(); err != nil {
		return err
	}
	m, err := o.Shared.Build()
	if err != nil {
		return err
	}
	o.model = m
	o.Shared.pin()
	o.scratch = m.getScratch(vector.Size)
	o.staging = o.scratch.staging
	o.bufs = o.scratch.bufs
	o.lstm = o.scratch.lstm
	if o.span != nil {
		if o.cacheSeen {
			if o.cacheHit {
				o.span.SetLabel("cache", "hit")
			} else {
				o.span.SetLabel("cache", "miss")
			}
		}
		// The build ran at most once per SharedModel; on an artifact-cache
		// hit this query never paid it, so report build=0. Store (not Add):
		// every partition instance reports the same shared duration.
		if !o.cacheSeen || !o.cacheHit {
			o.span.Counter("build_ns").Store(int64(o.Shared.BuildDuration()))
		}
		o.ctrInfer = o.span.Counter("infer_ns")
		o.ctrSgemm = o.span.Counter("sgemm_ns")
		o.ctrFlops = o.span.Counter("sgemm_flops")
		o.ctrMarshal = o.span.Counter("marshal_ns")
		if o.Shared.Dev != nil {
			o.span.SetLabel("device", o.Shared.Dev.Name())
		}
		// pack_ns is the part of build_ns spent packing weights for the gemm
		// kernel; like the build it is paid on a miss only, so a hit shows 0.
		o.ctrBusy = o.span.Counter("sgemm_busy_ns")
		pack := o.span.Counter("pack_ns")
		if !o.cacheSeen || !o.cacheHit {
			pack.Store(int64(o.Shared.PackDuration()))
			// How the build ran: cold, or a delta patch of the previous
			// version's model; build_reason says why a build that had such
			// a base still ran cold.
			info := o.Shared.info
			o.span.SetLabel("build", info.Kind)
			if info.Reason != "" {
				o.span.SetLabel("build_reason", info.Reason)
			}
			o.span.Counter("build_blocks").Store(int64(info.Blocks))
		}
		if o.batched() {
			o.span.SetLabel("batched", "yes")
			o.ctrBatchWait = o.span.Counter("batch_wait_ns")
		} else {
			o.span.SetLabel("batched", "no")
			// A wired scheduler that this operator bypasses is a fallback
			// worth surfacing: recurrent models keep device state across
			// time steps and cannot be coalesced, and sessions can opt out.
			if o.sched != nil {
				if o.model.layers[0].kind == nn.KindLSTM {
					o.span.SetLabel("fallback_reason", "lstm")
				} else if o.policy.Disabled {
					o.span.SetLabel("fallback_reason", "batching_disabled")
				}
			}
		}
	}
	return nil
}

// batched reports whether this operator's forward passes go through the
// inference scheduler. Requires a wired scheduler, a policy that hasn't
// opted out, and a dense-first model (the LSTM path keeps device state
// across time steps and stays direct). Valid after Open.
func (o *Operator) batched() bool {
	return o.sched != nil && !o.policy.Disabled && o.model != nil &&
		o.model.layers[0].kind != nn.KindLSTM
}

// Next implements exec.Operator.
func (o *Operator) Next() (*vector.Batch, error) {
	in, err := o.Child.Next()
	if err != nil || in == nil {
		return nil, err
	}
	n := in.Len()
	var inferStart time.Time
	if o.ctrInfer != nil {
		inferStart = time.Now()
	}
	preds, err := o.infer(in, n)
	if err != nil {
		return nil, err
	}
	if o.ctrInfer != nil {
		o.ctrInfer.Add(int64(time.Since(inferStart)))
	}

	out := vector.NewBatch(o.schema, n)
	for c := 0; c < in.Schema.Len(); c++ {
		out.Vecs[c].CopyFrom(in.Vecs[c], nil)
	}
	// Scatter the prediction matrix back into column vectors (the second
	// conversion of Sec. 5.3).
	var scatterStart time.Time
	if o.ctrMarshal != nil {
		scatterStart = time.Now()
	}
	p := o.model.meta.OutputDim()
	for j := 0; j < p; j++ {
		v := out.Vecs[in.Schema.Len()+j]
		v.SetLen(n)
		dst := v.Float32s()
		for r := 0; r < n; r++ {
			dst[r] = preds.At(r, j)
		}
	}
	if o.ctrMarshal != nil {
		o.ctrMarshal.Add(int64(time.Since(scatterStart)))
	}
	out.SetLen(n)
	return out, nil
}

// noteGemm attributes one device matrix multiply — its wall time, its
// kernel busy time summed over workers and its FLOP count — to the trace
// when enabled.
func (o *Operator) noteGemm(wall, busy time.Duration, m, k, n int) {
	if o.ctrSgemm == nil {
		return
	}
	o.ctrSgemm.Add(int64(wall))
	o.ctrBusy.Add(int64(busy))
	o.ctrFlops.Add(blas.FlopsGemm(m, k, n))
}

// gemm runs one unfused device matrix multiply C += A·B (the LSTM's
// recurrent term and the NoBiasMatrix ablation). Its busy time is its wall
// time: Sgemm does not report its workers.
func (o *Operator) gemm(a, b, c blas.Mat) {
	start := time.Now()
	o.model.dev.Gemm(a, b, c)
	wall := time.Since(start)
	o.noteGemm(wall, wall, a.Rows, a.Cols, b.Cols)
}

// infer runs the vectorized forward pass for one batch and returns a host
// matrix of predictions (n×outputDim).
func (o *Operator) infer(in *vector.Batch, n int) (blas.Mat, error) {
	m := o.model
	dev := m.dev

	var act blas.Mat // current device activation (n×width view)
	layerStart := 0
	if m.layers[0].kind == nn.KindLSTM {
		h, err := o.lstmForward(in, n)
		if err != nil {
			return blas.Mat{}, err
		}
		act = h
		layerStart = 1
	} else {
		// Gather the input columns into a row-major n×inDim staging matrix
		// (Fig. 7, step 1), touching each column vector once.
		var gatherStart time.Time
		if o.ctrMarshal != nil {
			gatherStart = time.Now()
		}
		inDim := m.layers[0].inDim
		staging := o.staging[:n*inDim]
		for j, c := range o.InputCols {
			gatherColumn(in.Vecs[c], staging, j, inDim, n)
		}
		if o.ctrMarshal != nil {
			o.ctrMarshal.Add(int64(time.Since(gatherStart)))
		}
		if o.batched() {
			// Hand the gathered batch to the scheduler: it may coalesce it
			// with concurrent queries' batches over the same cached artifact
			// into one packed forward pass, and it writes host predictions
			// directly (upload, sgemms and download happen inside RunPacked).
			preds := blas.NewMat(n, m.meta.OutputDim())
			res, err := o.sched.Submit(o.qctx, o.schedLabel, m, n, staging, preds.Data)
			if err != nil {
				return blas.Mat{}, err
			}
			if o.ctrBatchWait != nil {
				o.ctrBatchWait.Add(int64(res.Wait))
			}
			if o.ctrSgemm != nil {
				// Per-query attribution under coalescing: this query's
				// rows-proportional share of the packed run, and its exact
				// FLOP count (FLOPs scale linearly in rows).
				o.ctrSgemm.Add(int64(res.Run))
				o.ctrBusy.Add(int64(res.Busy))
				o.ctrFlops.Add(m.flopsFor(n))
			}
			return preds, nil
		}
		view := blas.Mat{Rows: n, Cols: inDim, Data: o.bufs[0].Data[:n*inDim]}
		dev.Upload(view, staging)
		act = view
	}

	for li := layerStart; li < len(m.layers); li++ {
		l := &m.layers[li]
		out := blas.Mat{Rows: n, Cols: l.units, Data: o.bufs[li+1].Data[:n*l.units]}
		wall, busy := m.denseForward(l, act, out)
		o.noteGemm(wall, busy, n, l.inDim, l.units)
		act = out
	}

	preds := blas.NewMat(n, m.meta.OutputDim())
	dev.Download(preds.Data, act)
	return preds, nil
}

// lstmForward implements Listing 5 on the device: per time step, each gate's
// z = x_t·W_g + bias (one fused gemm) + h·U_g, gate activations, cell update
// and hidden state. The series is uploaded once as a T×batch matrix so each
// x_t is a contiguous device row.
func (o *Operator) lstmForward(in *vector.Batch, n int) (blas.Mat, error) {
	m := o.model
	dev := m.dev
	l := m.layers[0]
	s := o.lstm

	// Upload the series transposed: row t holds x_t for all batch rows.
	var gatherStart time.Time
	if o.ctrMarshal != nil {
		gatherStart = time.Now()
	}
	staging := o.staging[:l.timeSteps*n]
	for t, c := range o.InputCols {
		gatherRow(in.Vecs[c], staging[t*n:(t+1)*n], n)
	}
	if o.ctrMarshal != nil {
		o.ctrMarshal.Add(int64(time.Since(gatherStart)))
	}
	xView := blas.Mat{Rows: l.timeSteps, Cols: n, Data: s.x.Data[:l.timeSteps*n]}
	dev.Upload(xView, staging)

	h := blas.Mat{Rows: n, Cols: l.units, Data: s.h.Data[:n*l.units]}
	c := blas.Mat{Rows: n, Cols: l.units, Data: s.c.Data[:n*l.units]}
	tmp := blas.Mat{Rows: n, Cols: l.units, Data: s.tmp.Data[:n*l.units]}
	var z [4]blas.Mat
	for g := 0; g < 4; g++ {
		z[g] = blas.Mat{Rows: n, Cols: l.units, Data: s.z[g].Data[:n*l.units]}
	}

	for round := 0; round < l.timeSteps; round++ {
		xt := blas.Mat{Rows: n, Cols: 1, Data: xView.Row(round)}
		for g := 0; g < 4; g++ {
			if m.cfg.NoBiasMatrix {
				for r := 0; r < n; r++ {
					dev.Copy(z[g].Row(r), l.gBias[g])
				}
				o.gemm(xt, l.wg[g], z[g]) // kernel contribution + z
			} else {
				start := time.Now()
				busy := dev.GemmBiasAct(xt, l.pwg[g], l.gBias[g], blas.ActNone, z[g])
				o.noteGemm(time.Since(start), busy, n, xt.Cols, l.units)
			}
			if round > 0 {
				o.gemm(h, l.ug[g], z[g]) // recurrent contribution + z
			}
		}
		dev.Sigmoid(z[0].Data) // i
		dev.Sigmoid(z[1].Data) // f
		dev.Tanh(z[2].Data)    // c̃
		dev.Sigmoid(z[3].Data) // o

		dev.VsMul(z[0].Data, z[2].Data, z[2].Data) // i ⊙ c̃
		if round > 0 {
			dev.VsMul(z[1].Data, c.Data, c.Data) // f ⊙ c
			dev.VsAdd(z[2].Data, c.Data, c.Data)
		} else {
			dev.Copy(c.Data, z[2].Data)
		}
		dev.Copy(tmp.Data, c.Data)
		dev.Tanh(tmp.Data)
		dev.VsMul(z[3].Data, tmp.Data, h.Data) // h = o ⊙ tanh(c)
	}
	return h, nil
}

// applyActivation dispatches a layer activation to the device's kernels
// ("handcrafted CUDA kernel implementations for different types of
// activation functions", Sec. 5.4).
func applyActivation(dev interface {
	Sigmoid([]float32)
	Tanh([]float32)
	ReLU([]float32)
}, act nn.Activation, x []float32) {
	switch act {
	case nn.Sigmoid:
		dev.Sigmoid(x)
	case nn.Tanh:
		dev.Tanh(x)
	case nn.ReLU:
		dev.ReLU(x)
	}
}

// gatherColumn writes column vector values into staging at stride, i.e.
// staging[r*stride+j] = vec[r], converting to float32.
func gatherColumn(v *vector.Vector, staging []float32, j, stride, n int) {
	switch v.Type() {
	case types.Float32:
		src := v.Float32s()
		for r := 0; r < n; r++ {
			staging[r*stride+j] = src[r]
		}
	case types.Float64:
		src := v.Float64s()
		for r := 0; r < n; r++ {
			staging[r*stride+j] = float32(src[r])
		}
	case types.Int32:
		src := v.Int32s()
		for r := 0; r < n; r++ {
			staging[r*stride+j] = float32(src[r])
		}
	case types.Int64:
		src := v.Int64s()
		for r := 0; r < n; r++ {
			staging[r*stride+j] = float32(src[r])
		}
	}
}

// gatherRow writes a column vector contiguously into dst.
func gatherRow(v *vector.Vector, dst []float32, n int) {
	switch v.Type() {
	case types.Float32:
		copy(dst, v.Float32s()[:n])
	case types.Float64:
		src := v.Float64s()
		for r := 0; r < n; r++ {
			dst[r] = float32(src[r])
		}
	case types.Int32:
		src := v.Int32s()
		for r := 0; r < n; r++ {
			dst[r] = float32(src[r])
		}
	case types.Int64:
		src := v.Int64s()
		for r := 0; r < n; r++ {
			dst[r] = float32(src[r])
		}
	}
}

// Close implements exec.Operator, returning the scratch working set to the
// model's pool and dropping the pin that keeps the model's device memory
// alive across cache eviction.
func (o *Operator) Close() error {
	if o.model != nil {
		o.model.putScratch(o.scratch)
		o.Shared.unpin()
		o.scratch, o.staging, o.bufs, o.lstm, o.model = nil, nil, nil, nil, nil
	}
	return o.Child.Close()
}
