// Package modeljoin implements the paper's native ModelJoin database
// operator (Sec. 5): a two-phase join between an input flow and a model
// table. The build phase parses the relational model representation into
// weight matrices — through relmodel.Decode, in parallel over the model
// table's partitions, into shared memory, with a barrier after each of its
// passes (Sec. 5.2, Fig. 6) — and the inference phase performs vectorized
// batch inference with BLAS kernels on a compute device (CPU, or the
// simulated GPU; Sec. 5.4, Fig. 7, Listing 5).
//
// The operator plugs into the engine's Volcano interface, is pipelined (not
// a pipeline breaker) and order-preserving, so inference results can feed
// arbitrary downstream operators (Sec. 5.1).
package modeljoin

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"indbml/internal/blas"
	"indbml/internal/core/relmodel"
	"indbml/internal/device"
	"indbml/internal/engine/storage"
	"indbml/internal/nn"
)

// Config tunes the build and inference phases; the zero value matches the
// paper's design.
type Config struct {
	// FineGrainedGPUBuild disables the Sec. 5.2 optimization of building on
	// host memory and copying the finished model once: every matrix write
	// becomes an individual device transfer.
	FineGrainedGPUBuild bool
	// SerialBuild disables the parallel build phase (one thread parses all
	// model partitions), for the build-phase ablation.
	SerialBuild bool
}

// deviceLayer is one model layer materialized on the compute device.
type deviceLayer struct {
	kind  nn.LayerKind
	inDim int // previous layer width (1 for the univariate LSTM)
	units int
	act   nn.Activation

	// Dense: W is inDim×units, bias the raw vector. pw is W packed for the
	// fused gemm at build time, so inference never packs.
	w    blas.Mat
	bias []float32
	pw   *blas.PackedB

	// LSTM (gate order i, f, c, o); pwg and pwu are the packed input and
	// recurrent kernels.
	timeSteps int
	wg, ug    [4]blas.Mat
	gBias     [4][]float32
	pwg, pwu  [4]*blas.PackedB
}

// builtModel is the shared, device-resident model all partition operator
// instances read during inference.
type builtModel struct {
	dev     device.Device
	meta    *relmodel.Meta // nil for a Compiled model
	cfg     Config
	snap    *storage.Snapshot // the model-table blocks the weights were read from
	layers  []deviceLayer
	packDur time.Duration // build-phase weight packing, part of the build

	// scratchPool recycles RunPacked's device working sets across passes,
	// and hostPool the operators' host buffers across operator instances and
	// queries (the model itself outlives a query when it sits in the engine's
	// artifact cache). Both bounded; see putScratch and putHost.
	scratchMu   sync.Mutex
	scratchPool []*inferScratch
	hostPool    []*hostBufs
	freed       bool
}

// SharedModel coordinates the one-time cooperative build: many partitioned
// ModelJoin instances reference the same SharedModel, and the first Open
// triggers the parallel build (goroutine-per-model-partition with a closing
// barrier). When held in the engine's cross-query artifact cache a
// SharedModel outlives individual queries: the pin count tracks operators
// using it, and Release (cache eviction) defers freeing device memory until
// the last user closes.
type SharedModel struct {
	Table *storage.Table
	Meta  *relmodel.Meta
	Dev   device.Device
	Cfg   Config

	once     sync.Once
	built    *builtModel
	err      error
	buildDur time.Duration // written inside once.Do, read only after Build returns
	info     buildInfo     // likewise
	done     atomic.Bool   // the build has finished; built and err are final

	mu      sync.Mutex
	pins    int
	evicted bool
	base    *SharedModel // pinned earlier build to patch; see SetBase
}

// buildInfo describes how a build phase ran; the ModelJoin span reports it.
type buildInfo struct {
	// Kind is "cold" (every model-table block parsed) or "delta" (a base
	// model patched from the blocks that changed since it was built).
	Kind string
	// Reason says why a build that had a base ran cold: "key_columns" (an
	// edge-key column changed), "row_count" (rows were added or removed) or
	// "base_failed" (the base has no successful build). Empty otherwise.
	Reason string
	// Blocks counts the column blocks read.
	Blocks int
}

// SetBase offers base — an earlier SharedModel of the same model table,
// device and Config — as the starting point of this model's build, which
// then re-reads only the model-table blocks that changed since base was
// built. It takes over one pin the caller holds on base; the pin is dropped
// when the build finishes or, if it never runs, on Release.
func (s *SharedModel) SetBase(base *SharedModel) {
	s.mu.Lock()
	s.base = base
	s.mu.Unlock()
}

// takeBase hands the offered base (and its pin) to the caller.
func (s *SharedModel) takeBase() *SharedModel {
	s.mu.Lock()
	defer s.mu.Unlock()
	b := s.base
	s.base = nil
	return b
}

// Build returns the built model, constructing it on first use.
func (s *SharedModel) Build() (*builtModel, error) {
	s.once.Do(func() {
		start := time.Now()
		// One table-wide snapshot: every statement is either wholly in the
		// model or wholly absent, whatever commits while the build runs.
		base := s.takeBase()
		s.built, s.info, s.err = build(s.Table.Snapshot(), s.Meta, s.Dev, s.Cfg, base)
		if base != nil {
			base.Unpin()
		}
		s.buildDur = time.Since(start)
		s.done.Store(true)
	})
	return s.built, s.err
}

// BuildDuration reports how long the one-time build phase took. Valid
// after Build has returned (once.Do orders the write before every
// caller's read); zero if the build has not run.
func (s *SharedModel) BuildDuration() time.Duration { return s.buildDur }

// PackDuration reports the part of the build phase spent packing weights for
// the gemm kernel; zero if the build has not run or failed.
func (s *SharedModel) PackDuration() time.Duration {
	if s.built == nil {
		return 0
	}
	return s.built.packDur
}

// builtOK returns the model of a finished, successful build, or nil.
func (s *SharedModel) builtOK() *builtModel {
	if !s.done.Load() || s.err != nil {
		return nil
	}
	return s.built
}

// InputDim reports the width of one row of RunPacked's staging: the
// feature count of a dense-first model, the time steps of an LSTM-first one
// (matching New's input-column check). With OutputDim and RunPacked it makes
// builtModel an infersched.Runner, so the scheduler can key coalescing on
// artifact identity (the cross-query model cache deduplicates concurrent
// queries onto one *builtModel).
func (m *builtModel) InputDim() int {
	l := &m.layers[0]
	if l.kind == nn.KindLSTM {
		return l.timeSteps
	}
	return l.inDim
}

// OutputDim reports the model's prediction width.
func (m *builtModel) OutputDim() int { return m.layers[len(m.layers)-1].units }

// RunPacked executes one packed forward pass over rows feature rows
// (row-major rows×InputDim in staging), writing rows×OutputDim predictions
// to preds, and reports the gemm kernels' busy time summed over their
// workers. It is the operator's one inference loop (Sec. 5.4): every MODEL
// JOIN batch reaches it through the scheduler, alone or coalesced with
// concurrent statements' batches, so rows may exceed vector.Size; the
// baselines reach it through Compiled.Run. The device working set is checked
// out of the model's pool for the pass only.
func (m *builtModel) RunPacked(rows int, staging, preds []float32) (time.Duration, error) {
	s := m.getScratch(rows)
	defer m.putScratch(s)
	var act blas.Mat
	var busy time.Duration
	first := 0
	if m.layers[0].kind == nn.KindLSTM {
		act, busy = m.lstmForward(s, rows, staging)
		first = 1
	} else {
		inDim := m.layers[0].inDim
		act = blas.Mat{Rows: rows, Cols: inDim, Data: s.bufs[0].Data[:rows*inDim]}
		m.dev.Upload(act, staging[:rows*inDim])
	}
	for li := first; li < len(m.layers); li++ {
		l := &m.layers[li]
		out := blas.Mat{Rows: rows, Cols: l.units, Data: s.bufs[li+1].Data[:rows*l.units]}
		busy += m.denseForward(l, act, out)
		act = out
	}
	m.dev.Download(preds[:rows*m.OutputDim()], act)
	return busy, nil
}

// lstmForward implements Listing 5 on the device for rows series (row-major
// rows×timeSteps in staging): per time step, each gate's z = x_t·W_g + bias
// (one fused gemm) + h·U_g (one accumulating gemm), gate activations, cell
// update and hidden state.
// The series is transposed into the scratch's timeSteps×rows matrix and
// uploaded once, so each x_t is a contiguous device row. It returns the
// final hidden state and the gemm kernels' busy time.
func (m *builtModel) lstmForward(s *inferScratch, rows int, staging []float32) (blas.Mat, time.Duration) {
	dev := m.dev
	l := &m.layers[0]
	ls := s.lstm
	steps := l.timeSteps
	series := ls.series[:steps*rows]
	for r := 0; r < rows; r++ {
		for t, v := range staging[r*steps : (r+1)*steps] {
			series[t*rows+r] = v
		}
	}
	x := blas.Mat{Rows: steps, Cols: rows, Data: ls.x.Data[:steps*rows]}
	dev.Upload(x, series)

	h := blas.Mat{Rows: rows, Cols: l.units, Data: ls.h.Data[:rows*l.units]}
	c := blas.Mat{Rows: rows, Cols: l.units, Data: ls.c.Data[:rows*l.units]}
	tmp := blas.Mat{Rows: rows, Cols: l.units, Data: ls.tmp.Data[:rows*l.units]}
	var z [4]blas.Mat
	for g := 0; g < 4; g++ {
		z[g] = blas.Mat{Rows: rows, Cols: l.units, Data: ls.z[g].Data[:rows*l.units]}
	}

	var busy time.Duration
	for round := 0; round < steps; round++ {
		xt := blas.Mat{Rows: rows, Cols: 1, Data: x.Row(round)}
		for g := 0; g < 4; g++ {
			busy += dev.GemmBiasAct(xt, l.pwg[g], l.gBias[g], blas.ActNone, z[g])
			if round > 0 {
				busy += dev.GemmBiasAct(h, l.pwu[g], nil, blas.ActNone, z[g]) // z += h·U_g
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
	return h, busy
}

// flopsFor reports the forward pass's matrix-multiply FLOP count for n
// feature rows (used to attribute a coalesced super-batch's work back to
// each query's trace span — FLOPs scale linearly in rows).
func (m *builtModel) flopsFor(n int) int64 {
	var f int64
	for _, l := range m.layers {
		if l.kind == nn.KindLSTM {
			steps := int64(l.timeSteps)
			f += 4 * (steps*blas.FlopsGemm(n, l.inDim, l.units) + (steps-1)*blas.FlopsGemm(n, l.units, l.units))
			continue
		}
		f += blas.FlopsGemm(n, l.inDim, l.units)
	}
	return f
}

// denseForward computes out = act(in·W + bias) on the device for any row
// count: one fused gemm over the weights packed at build. It returns the
// kernel busy time summed over workers.
func (m *builtModel) denseForward(l *deviceLayer, in, out blas.Mat) time.Duration {
	return m.dev.GemmBiasAct(in, l.pw, l.bias, blasActivation(l.act), out)
}

// blasActivation maps a layer activation to the gemm epilogue's.
func blasActivation(a nn.Activation) blas.Activation {
	switch a {
	case nn.ReLU:
		return blas.ActReLU
	case nn.Sigmoid:
		return blas.ActSigmoid
	case nn.Tanh:
		return blas.ActTanh
	}
	return blas.ActNone
}

// build runs the build phase from snap: a delta build patching base when
// only weight columns changed in place since base was built, otherwise a
// cold build.
func build(snap *storage.Snapshot, meta *relmodel.Meta, dev device.Device, cfg Config, base *SharedModel) (*builtModel, buildInfo, error) {
	if base == nil {
		return buildModel(snap, meta, dev, cfg)
	}
	bm := base.builtOK()
	if bm == nil {
		m, info, err := buildModel(snap, meta, dev, cfg)
		info.Reason = "base_failed"
		return m, info, err
	}
	ch := snap.ChangesSince(bm.snap)
	reason := ""
	if ch.Reshaped {
		reason = "row_count"
	} else if len(ch.Cols) > 0 && ch.Cols[0] < meta.Layout.KeyColumns() {
		reason = "key_columns"
	}
	if reason == "" {
		return bm.patch(snap, ch.Blocks)
	}
	m, info, err := buildModel(snap, meta, dev, cfg)
	info.Reason = reason
	return m, info, err
}

// buildModel runs the two-step cold build: (1) relmodel.Decode parses and
// checks the model table's partitions into host layers, in parallel with a
// barrier (Sec. 5.2) unless cfg.SerialBuild, and (2) a single transfer of
// the finished matrices to the device, followed by packing the weights for
// the gemm kernel.
func buildModel(snap *storage.Snapshot, meta *relmodel.Meta, dev device.Device, cfg Config) (*builtModel, buildInfo, error) {
	host, blocks, err := relmodel.Decode(snap, meta, cfg.SerialBuild)
	info := buildInfo{Kind: "cold", Blocks: blocks}
	if err != nil {
		return nil, info, err
	}
	bm := &builtModel{dev: dev, meta: meta, cfg: cfg, snap: snap}
	for _, hl := range host {
		bm.layers = append(bm.layers, bm.upload(hl))
	}
	return bm, info, nil
}

// upload moves a finished host layer to the device, an LSTM's stacked gate
// matrices split per gate, and packs its weights for the fused gemm,
// accounting the packing time.
func (m *builtModel) upload(hl nn.Layer) deviceLayer {
	dev, cfg := m.dev, m.cfg
	pack := func(w blas.Mat) *blas.PackedB {
		start := time.Now()
		defer func() { m.packDur += time.Since(start) }()
		return blas.PackB(w)
	}
	if l, ok := hl.(*nn.LSTM); ok {
		u := l.Units
		dl := deviceLayer{kind: nn.KindLSTM, inDim: l.Features, units: u, timeSteps: l.TimeSteps}
		for g := 0; g < 4; g++ {
			wg, ug := gateCols(l.W, g, u), gateCols(l.U, g, u)
			dl.wg[g], dl.ug[g] = uploadMat(dev, wg, cfg), uploadMat(dev, ug, cfg)
			dl.gBias[g], dl.pwg[g], dl.pwu[g] = l.B[g*u:(g+1)*u], pack(wg), pack(ug)
		}
		return dl
	}
	d := hl.(*nn.Dense)
	return deviceLayer{kind: nn.KindDense, inDim: d.InputDim(), units: d.OutputDim(), act: d.Act,
		w: uploadMat(dev, d.W, cfg), bias: d.B, pw: pack(d.W)}
}

// Compiled is an nn.Model compiled onto a device without a model table:
// MODEL JOIN's packed forward pass (RunPacked) behind a row-major C-API-like
// call, which the C-API, UDF and TF(Python) baselines run, so that what
// separates them from MODEL JOIN is their integration and nothing else. It
// is safe for concurrent use.
type Compiled struct{ m *builtModel }

// Compile uploads every layer of m to dev and packs its weights. The model
// must be valid, and an LSTM univariate (one feature per time step).
func Compile(m *nn.Model, dev device.Device) (*Compiled, error) {
	if err := m.Validate(); err != nil {
		return nil, fmt.Errorf("modeljoin: %w", err)
	}
	if l, ok := m.Layers[0].(*nn.LSTM); ok && l.Features != 1 {
		return nil, fmt.Errorf("modeljoin: only univariate LSTM layers are supported (features == 1, got %d)", l.Features)
	}
	bm := &builtModel{dev: dev}
	for _, l := range m.Layers {
		bm.layers = append(bm.layers, bm.upload(l))
	}
	return &Compiled{bm}, nil
}

// InputDim reports the row width of Run's input.
func (c *Compiled) InputDim() int { return c.m.InputDim() }

// OutputDim reports the row width of Run's output.
func (c *Compiled) OutputDim() int { return c.m.OutputDim() }

// Run writes the predictions for rows rows of row-major input
// (rows×InputDim) to out (rows×OutputDim, allocated by the caller).
func (c *Compiled) Run(input []float32, rows int, out []float32) error {
	in, p := c.InputDim(), c.OutputDim()
	if len(input) != rows*in {
		return fmt.Errorf("modeljoin: input has %d values, want %d×%d", len(input), rows, in)
	}
	if len(out) != rows*p {
		return fmt.Errorf("modeljoin: output buffer has %d values, want %d×%d", len(out), rows, p)
	}
	if rows == 0 {
		return nil
	}
	_, err := c.m.RunPacked(rows, input, out)
	return err
}

// Close releases the model's device memory.
func (c *Compiled) Close() { c.m.free() }

// gateCols copies gate g's u columns out of a stacked LSTM matrix.
func gateCols(m blas.Mat, g, u int) blas.Mat {
	c := blas.NewMat(m.Rows, u)
	for i := 0; i < m.Rows; i++ {
		copy(c.Row(i), m.Row(i)[g*u:(g+1)*u])
	}
	return c
}

// patch is the delta build: a copy of m that re-reads only the given row
// blocks of snap — whose key columns, and row counts, are those m was built
// from — through relmodel.Patch: the cold build's per-row checks and
// placement. Layers the blocks touch are downloaded, patched, uploaded and
// re-packed; the others are copied device to device and keep their packed
// weights and biases, which are immutable. The result is bit-identical to a
// cold build of snap and shares no device memory with m; m's idle pooled
// scratch and host buffers (same shapes, same device) move over.
func (m *builtModel) patch(snap *storage.Snapshot, blocks []storage.BlockRef) (*builtModel, buildInfo, error) {
	host := make([]nn.Layer, len(m.layers))
	n, err := relmodel.Patch(snap, m.meta, blocks, func(li int) nn.Layer {
		if host[li] == nil {
			host[li] = m.download(li)
		}
		return host[li]
	})
	info := buildInfo{Kind: "delta", Blocks: n}
	if err != nil {
		return nil, info, err
	}
	nm := &builtModel{dev: m.dev, meta: m.meta, cfg: m.cfg, snap: snap}
	for li, hl := range host {
		if hl != nil {
			nm.layers = append(nm.layers, nm.upload(hl))
		} else {
			nm.layers = append(nm.layers, m.layers[li].copyOn(m.dev))
		}
	}
	m.scratchMu.Lock()
	if !m.freed {
		nm.scratchPool, m.scratchPool = m.scratchPool, nil
		nm.hostPool, m.hostPool = m.hostPool, nil
	}
	m.scratchMu.Unlock()
	return nm, info, nil
}

// download copies layer li back into a fresh host layer, an LSTM's gates
// stacked again.
func (m *builtModel) download(li int) nn.Layer {
	l := &m.layers[li]
	if l.kind == nn.KindDense {
		d := nn.NewDense(l.inDim, l.units, l.act)
		m.dev.Download(d.W.Data, l.w)
		copy(d.B, l.bias)
		return d
	}
	u := l.units
	lstm := nn.NewLSTM(l.inDim, u, l.timeSteps)
	for g := 0; g < 4; g++ {
		for _, mat := range [][2]blas.Mat{{lstm.W, l.wg[g]}, {lstm.U, l.ug[g]}} {
			h := blas.NewMat(mat[1].Rows, u)
			m.dev.Download(h.Data, mat[1])
			for i := 0; i < h.Rows; i++ {
				copy(mat[0].Row(i)[g*u:], h.Row(i))
			}
		}
		copy(lstm.B[g*u:], l.gBias[g])
	}
	return lstm
}

// copyOn duplicates the layer's device matrices; packed weights and biases
// are shared.
func (l deviceLayer) copyOn(dev device.Device) deviceLayer {
	cp := func(m blas.Mat) blas.Mat {
		if m.Data == nil {
			return m
		}
		d := dev.NewMat(m.Rows, m.Cols)
		dev.Copy(d.Data, m.Data)
		return d
	}
	l.w = cp(l.w)
	for g := 0; g < 4; g++ {
		l.wg[g], l.ug[g] = cp(l.wg[g]), cp(l.ug[g])
	}
	return l
}

// uploadMat moves a finished host matrix to the device. With
// FineGrainedGPUBuild each element is transferred individually, modeling
// the naive build the paper measured to be slow (Sec. 5.2).
func uploadMat(dev device.Device, m blas.Mat, cfg Config) blas.Mat {
	d := dev.NewMat(m.Rows, m.Cols)
	if cfg.FineGrainedGPUBuild && dev.IsGPU() {
		for i := 0; i < len(m.Data); i++ {
			sub := blas.Mat{Rows: 1, Cols: 1, Data: d.Data[i : i+1]}
			dev.Upload(sub, m.Data[i:i+1])
		}
		return d
	}
	dev.Upload(d, m.Data)
	return d
}
