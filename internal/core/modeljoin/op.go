package modeljoin

import (
	"context"
	"fmt"
	"sync/atomic"
	"time"

	"indbml/internal/engine/exec"
	"indbml/internal/engine/types"
	"indbml/internal/engine/vector"
	"indbml/internal/infersched"
	"indbml/internal/trace"
)

// Operator is the native ModelJoin query operator (Fig. 5). It follows the
// Volcano open/next/close protocol: the first Next triggers the (shared)
// build phase; every subsequent Next converts one input batch into the
// model's input layout (Sec. 5.3), runs the vectorized inference (Sec. 5.4)
// and returns the batch extended with prediction columns. All non-input
// child columns pass through untouched — the native operator needs no late
// projection (Sec. 5.3).
//
// Inference has one road: every batch is submitted to the engine's batched
// inference scheduler, and the pass that runs it — alone, or coalesced with
// concurrent statements' batches over the same cached artifact, as one
// packed forward pass (builtModel.RunPacked) — runs on this operator's
// goroutine or on that of another submitter of the same model.
type Operator struct {
	Child  exec.Operator
	Shared *SharedModel
	// InputCols are child column ordinals fed to the model, in input order.
	InputCols []int

	schema *types.Schema
	sched  *infersched.Scheduler
	label  infersched.Label // names the (model, device) queue
	qctx   context.Context

	// Checked out at Open: the built model, the host buffers pooled on it,
	// and the output batch, whose leading vectors are the child's (by
	// reference) and whose prediction vectors are host.cols.
	model *builtModel
	host  *hostBufs
	out   *vector.Batch

	// Tracing. The plan builder hands the operator its span (shared with
	// the sibling partition instances) via SetSpan before Open; Open then
	// resolves the phase counters once, so the inference loop pays a single
	// atomic add per timed event and nothing at all when untraced.
	span         *trace.Span
	cacheHit     bool          // per-query artifact-cache verdict (see NoteCacheLookup)
	ctrInfer     *atomic.Int64 // infer_ns: full forward-pass time
	ctrSgemm     *atomic.Int64 // sgemm_ns: this batch's share of the packed pass
	ctrFlops     *atomic.Int64 // sgemm_flops
	ctrMarshal   *atomic.Int64 // marshal_ns: column gather/scatter conversion time
	ctrBatchWait *atomic.Int64 // batch_wait_ns: time waiting for the scheduler's queue and device gate
	ctrBusy      *atomic.Int64 // sgemm_busy_ns: gemm kernel time summed over BLAS workers
}

// SetSpan implements trace.SpanCarrier.
func (o *Operator) SetSpan(sp *trace.Span) { o.span = sp }

// NoteCacheLookup records whether this query found the model in the
// cross-query artifact cache (hit) or had to insert it (miss). Called by
// the catalog when it resolves the SharedModel, before SetSpan/Open.
func (o *Operator) NoteCacheLookup(hit bool) { o.cacheHit = hit }

// SetQueryContext hands the operator the statement's context, whose
// cancellation ends a wait in the scheduler. Called by the plan builder
// before Open.
func (o *Operator) SetQueryContext(ctx context.Context) { o.qctx = ctx }

// New constructs a ModelJoin over child whose forward passes go through
// sched's queue for label. The operator's schema is the child's columns
// followed by the prediction columns.
func New(child exec.Operator, shared *SharedModel, inputCols []int, sched *infersched.Scheduler, label infersched.Label) (*Operator, error) {
	meta := shared.Meta
	if err := CheckInputs(meta.Name, meta.Inputs(), child.Schema(), inputCols); err != nil {
		return nil, err
	}
	return &Operator{
		Child:  child,
		Shared: shared, InputCols: inputCols,
		schema: types.NewSchema(append(child.Schema().Columns(), PredictionColumns(meta.OutputDim())...)...),
		sched:  sched, label: label,
	}, nil
}

// Columns is the column list CheckInputs reads: an operator's
// *types.Schema, or the planner's bound scope before any schema exists.
type Columns interface {
	Len() int
	Col(i int) types.Column
}

// CheckInputs checks that inputCols names want numeric columns of cols:
// the MODEL JOIN input contract, which New, the planner and the baselines'
// operators share.
func CheckInputs(model string, want int, cols Columns, inputCols []int) error {
	if len(inputCols) != want {
		return fmt.Errorf("modeljoin: model %s expects %d input columns, got %d", model, want, len(inputCols))
	}
	for _, c := range inputCols {
		if c < 0 || c >= cols.Len() {
			return fmt.Errorf("modeljoin: input column %d out of range", c)
		}
		if col := cols.Col(c); !col.Type.IsNumeric() {
			return fmt.Errorf("modeljoin: input column %q is not numeric", col.Name)
		}
	}
	return nil
}

// PredictionColumns names the FLOAT columns of outputs predictions:
// "prediction" for one, prediction_0, prediction_1, … otherwise. The
// planner types a MODEL JOIN with it before any operator exists.
func PredictionColumns(outputs int) []types.Column {
	if outputs == 1 {
		return []types.Column{{Name: "prediction", Type: types.Float32}}
	}
	cols := make([]types.Column, outputs)
	for i := range cols {
		cols[i] = types.Column{Name: fmt.Sprintf("prediction_%d", i), Type: types.Float32}
	}
	return cols
}

// Schema implements exec.Operator.
func (o *Operator) Schema() *types.Schema { return o.schema }

// Open implements exec.Operator: it runs (or joins) the build phase and
// checks the operator's host buffers out of the model's pool (Sec. 5.1:
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
	o.host = m.getHost()
	o.out = &vector.Batch{Schema: o.schema, Vecs: make([]*vector.Vector, o.schema.Len())}
	copy(o.out.Vecs[o.schema.Len()-len(o.host.cols):], o.host.cols)
	if o.span != nil {
		// The build ran at most once per SharedModel; on an artifact-cache
		// hit this query never paid it, so report build=0. Store (not Add):
		// every partition instance reports the same shared duration.
		if o.cacheHit {
			o.span.SetLabel("cache", "hit")
		} else {
			o.span.SetLabel("cache", "miss")
			o.span.Counter("build_ns").Store(int64(o.Shared.BuildDuration()))
			// pack_ns is the part of build_ns spent packing weights for the
			// gemm kernel; like the build it is paid on a miss only.
			o.span.Counter("pack_ns").Store(int64(o.Shared.PackDuration()))
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
		if o.Shared.Dev != nil {
			o.span.SetLabel("device", o.Shared.Dev.Name())
		}
		o.span.SetLabel("batched", "yes")
		o.ctrInfer = o.span.Counter("infer_ns")
		o.ctrSgemm = o.span.Counter("sgemm_ns")
		o.ctrFlops = o.span.Counter("sgemm_flops")
		o.ctrMarshal = o.span.Counter("marshal_ns")
		o.ctrBatchWait = o.span.Counter("batch_wait_ns")
		o.ctrBusy = o.span.Counter("sgemm_busy_ns")
	}
	return nil
}

// Next implements exec.Operator. The child's column vectors pass through
// by reference: they stay valid until this operator's next Next, which is
// exactly the lifetime the batch-ownership contract promises its output.
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
	if err := o.infer(in, n); err != nil {
		return nil, err
	}
	if o.ctrInfer != nil {
		o.ctrInfer.Add(int64(time.Since(inferStart)))
	}
	copy(o.out.Vecs, in.Vecs)
	o.out.SetLen(n)
	return o.out, nil
}

// infer runs the forward pass for one batch: gather the input columns into
// a row-major n×InputDim staging matrix (Fig. 7, step 1), submit it to the
// scheduler, which writes the host predictions (upload, gemms and download
// happen inside RunPacked), and scatter them into the prediction column
// vectors (the second conversion of Sec. 5.3).
func (o *Operator) infer(in *vector.Batch, n int) error {
	m, h := o.model, o.host
	var marshalStart time.Time
	if o.ctrMarshal != nil {
		marshalStart = time.Now()
	}
	inDim, p := m.InputDim(), m.OutputDim()
	staging := h.staging[:n*inDim]
	for j, c := range o.InputCols {
		GatherColumn(in.Vecs[c], staging, j, inDim, n)
	}
	if o.ctrMarshal != nil {
		o.ctrMarshal.Add(int64(time.Since(marshalStart)))
	}
	res, err := o.sched.Submit(o.qctx, o.label, m, n, staging, h.preds[:n*p])
	if err != nil {
		return err
	}
	if o.ctrMarshal != nil {
		// Per-query attribution under coalescing: this query's wait for
		// its pass, its rows-proportional share of the packed run, and its
		// exact FLOP count (FLOPs scale linearly in rows).
		o.ctrBatchWait.Add(int64(res.Wait))
		o.ctrSgemm.Add(int64(res.Run))
		o.ctrBusy.Add(int64(res.Busy))
		o.ctrFlops.Add(m.flopsFor(n))
		marshalStart = time.Now()
	}
	for j, v := range h.cols {
		v.SetLen(n)
		dst := v.Float32s()
		for r := range dst {
			dst[r] = h.preds[r*p+j]
		}
	}
	if o.ctrMarshal != nil {
		o.ctrMarshal.Add(int64(time.Since(marshalStart)))
	}
	return nil
}

// GatherColumn writes the first n values of a numeric column vector into
// staging at stride, i.e. staging[r*stride+j] = vec[r], converting to
// float32: the columnar → row-major conversion of Sec. 5.3.
func GatherColumn(v *vector.Vector, staging []float32, j, stride, n int) {
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

// Close implements exec.Operator, returning the host buffers to the model's
// pool and dropping the pin that keeps the model's device memory alive
// across cache eviction.
func (o *Operator) Close() error {
	if o.model != nil {
		o.model.putHost(o.host)
		o.Shared.unpin()
		o.model, o.host, o.out = nil, nil, nil
	}
	return o.Child.Close()
}
