package modeljoin

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"time"

	"indbml/internal/blas"
	"indbml/internal/core/relmodel"
	"indbml/internal/device"
	"indbml/internal/engine/storage"
	"indbml/internal/engine/types"
	"indbml/internal/engine/vector"
	"indbml/internal/nn"
)

// TestGeneratedModelDelta applies random UPDATE/DELETE/INSERT sequences to
// model tables — both layouts, dense and LSTM, CPU and GPU[sim] — and after
// each one builds the model twice: patched from the previous version's
// model (as the artifact cache does) and cold. The two must be bit-equal,
// down to the packed weights and the predictions, and the patched build
// must have gone delta exactly when only weight columns changed in place
// over a successful base. Every model is released at the end: no pins stay
// and both devices' arenas are back to 0 bytes. A run that never built a
// model delta tested nothing of the delta path and fails.
func TestGeneratedModelDelta(t *testing.T) {
	seed := time.Now().UnixNano()
	t.Logf("seed %d", seed)
	rng := rand.New(rand.NewSource(seed))
	deltas := 0
	for _, dev := range []device.Device{device.NewCPU(), device.NewGPU(device.DefaultGPUConfig())} {
		for _, layout := range []relmodel.Layout{relmodel.LayoutPairs, relmodel.LayoutNodeID} {
			for _, lstm := range []bool{false, true} {
				var m *nn.Model
				if lstm {
					m = nn.NewLSTMModel("dm", 3+rng.Intn(4), 2+rng.Intn(6), rng.Int63())
				} else {
					m = nn.NewDenseModel("dm", 3, 2+rng.Intn(24), 1+rng.Intn(3), 1+rng.Intn(2), rng.Int63())
				}
				deltas += deltaSequence(t, rng, m, layout, dev)
				if st := dev.Stats(); st.BytesAllocated != 0 {
					t.Fatalf("%s %v lstm=%v: %d device bytes still allocated after release", dev.Name(), layout, lstm, st.BytesAllocated)
				}
			}
		}
	}
	t.Logf("%d patched builds went delta", deltas)
	if deltas == 0 {
		t.Fatalf("seed %d: no step built its model delta", seed)
	}
}

// deltaSequence runs one mutation sequence and returns how many of its
// patched builds went delta.
func deltaSequence(t *testing.T, rng *rand.Rand, m *nn.Model, layout relmodel.Layout, dev device.Device) int {
	t.Helper()
	tbl, meta, err := relmodel.Export(m, relmodel.ExportOptions{Layout: layout, Partitions: 1 + rng.Intn(3)})
	if err != nil {
		t.Fatal(err)
	}
	inputs := meta.InputDim()
	if ts := meta.TimeSteps(); ts > 0 {
		inputs = ts
	}
	cols := make([]int, inputs)
	for i := range cols {
		cols[i] = i + 1
	}
	var all []*SharedModel
	newModel := func() *SharedModel {
		s := &SharedModel{Table: tbl, Meta: meta, Dev: dev}
		all = append(all, s)
		return s
	}
	prev := newModel()
	if _, err := prev.Build(); err != nil {
		t.Fatal(err)
	}
	mu := &deltaMutator{t: t, rng: rng, tbl: tbl, meta: meta, repairCol: -1}
	deltas := 0
	for step := 0; step < 14; step++ {
		op := mu.next()
		// Hand prev over as the cache does: pinned, then evicted.
		next := newModel()
		prev.Pin()
		next.SetBase(prev)
		prev.Release()
		nb, nerr := next.Build()
		cold := newModel()
		cb, cerr := cold.Build()
		if (nerr == nil) != (cerr == nil) {
			t.Fatalf("step %d (%s): patched build error %v, cold build error %v", step, op, nerr, cerr)
		}
		info := next.info
		want := []string{"delta/"}
		switch {
		case prev.builtOK() == nil:
			want = []string{"cold/base_failed"}
		case op == "key":
			want = []string{"cold/key_columns"}
		case op == "delete" || op == "insert" || op == "restore":
			// A dropped block refilled by the insert keeps every block's
			// row count, but not the key blocks.
			want = []string{"cold/row_count", "cold/key_columns"}
		}
		got := info.Kind + "/" + info.Reason
		if !slices.Contains(want, got) {
			t.Fatalf("step %d (%s): build %s, want one of %v", step, op, got, want)
		}
		if got == "delta/" {
			deltas++
		}
		if nerr == nil {
			sameModel(t, nb, cb)
			sameInference(t, next, cold, cols, inputs, rng.Int63())
		}
		cold.Release()
		prev = next
	}
	prev.Release()
	for i, s := range all {
		s.mu.Lock()
		pins, base := s.pins, s.base
		s.mu.Unlock()
		if pins != 0 || base != nil {
			t.Fatalf("model %d: %d pins and base %v outstanding after release", i, pins, base != nil)
		}
		// A freed model may still be referenced (the scheduler keys idle
		// queues on it) but must not keep old model-table blocks alive.
		if s.built != nil && s.built.snap != nil {
			t.Fatalf("model %d: freed model still holds its table snapshot", i)
		}
	}
	return deltas
}

// deltaMutator applies one random statement per call to a model table and
// names it: "weights" (an UPDATE of weight columns, or any statement that
// matched nothing), "inf" (one weight set to +Inf; the next call is its
// "repair"), "key" (a key column rewritten in place), "delete" (edges
// removed; the next call is their "restore", since a table with missing
// edges fails every build) or "insert" (edges removed and put back with new
// weights).
type deltaMutator struct {
	t         *testing.T
	rng       *rand.Rand
	tbl       *storage.Table
	meta      *relmodel.Meta
	repairCol int             // column holding an Inf to repair next, or -1
	deleted   [][]types.Datum // rows the last call deleted, to restore next
}

func (mu *deltaMutator) next() string {
	t, rng, tbl := mu.t, mu.rng, mu.tbl
	t.Helper()
	base := mu.meta.Layout.KeyColumns()
	ncols := tbl.Schema.Len()
	keys := make([]int, base)
	for i := range keys {
		keys[i] = i
	}
	mod, rem := int32(2+rng.Intn(9)), int32(rng.Intn(2))
	pick := func(b *vector.Batch, r int) bool {
		h := int32(0)
		for c := 0; c < base; c++ {
			h = h*31 + b.Vecs[c].Int32s()[r]
		}
		return (h%mod+mod)%mod == rem
	}
	// setWeights assigns v() to column col of the rows choose picks.
	setWeights := func(col int, read []int, choose func(b *vector.Batch, r int) bool, v func() float32) int {
		n, err := tbl.Update(read, nil, []int{col}, func(b *vector.Batch) ([]int, []*vector.Vector, error) {
			var hits []int
			out := vector.New(types.Float32, b.Len())
			out.SetLen(b.Len())
			for r := 0; r < b.Len(); r++ {
				if choose(b, r) {
					hits = append(hits, r)
					out.Float32s()[r] = v()
				}
			}
			return hits, []*vector.Vector{out}, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return n
	}

	if col := mu.repairCol; col >= 0 {
		mu.repairCol = -1
		read := append(keys[:base:base], col)
		setWeights(col, read, func(b *vector.Batch, r int) bool {
			return math.IsInf(float64(b.Vecs[base].Float32s()[r]), 0)
		}, func() float32 { return 0.25 })
		return "repair"
	}
	if rows := mu.deleted; rows != nil {
		mu.deleted = nil
		mu.appendRows(rows)
		return "restore"
	}
	switch op := []string{"weights", "weights", "weights", "inf", "key", "delete"}[rng.Intn(6)]; op {
	case "weights":
		setWeights(base+rng.Intn(ncols-base), keys, pick, func() float32 { return rng.Float32()*2 - 1 })
		return op
	case "inf":
		col, done := base+rng.Intn(ncols-base), false
		first := func(b *vector.Batch, r int) bool {
			if done || !pick(b, r) {
				return false
			}
			done = true
			return true
		}
		if setWeights(col, keys, first, func() float32 { return float32(math.Inf(1)) }) == 0 {
			return "weights"
		}
		mu.repairCol = col
		return op
	case "key":
		n, err := tbl.Update(keys, nil, []int{0}, func(b *vector.Batch) ([]int, []*vector.Vector, error) {
			var hits []int
			for r := 0; r < b.Len(); r++ {
				if pick(b, r) {
					hits = append(hits, r)
				}
			}
			return hits, []*vector.Vector{b.Vecs[0]}, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if n == 0 {
			return "weights"
		}
		return op
	default:
		var gone [][]types.Datum
		all := make([]int, ncols)
		for i := range all {
			all[i] = i
		}
		if _, err := tbl.Delete(all, nil, func(b *vector.Batch) ([]int, []*vector.Vector, error) {
			var hits []int
			for r := 0; r < b.Len(); r++ {
				if pick(b, r) {
					hits = append(hits, r)
					gone = append(gone, b.Row(r))
				}
			}
			return hits, nil, nil
		}); err != nil {
			t.Fatal(err)
		}
		if len(gone) == 0 {
			return "weights"
		}
		if rng.Intn(2) == 0 {
			mu.deleted = gone
			return "delete"
		}
		for _, row := range gone {
			row[base] = types.Float32Datum(rng.Float32())
		}
		mu.appendRows(gone)
		return "insert"
	}
}

// appendRows appends rows to the model table in one commit.
func (mu *deltaMutator) appendRows(rows [][]types.Datum) {
	b := vector.NewBatch(mu.tbl.Schema, len(rows))
	for _, row := range rows {
		if err := b.AppendRow(row...); err != nil {
			mu.t.Fatal(err)
		}
	}
	if err := mu.tbl.Append(b); err != nil {
		mu.t.Fatal(err)
	}
}

// sameModel checks two built models bit for bit: device matrices, biases,
// and packed weights (through one fused gemm each on the same input).
func sameModel(t *testing.T, a, b *builtModel) {
	t.Helper()
	if len(a.layers) != len(b.layers) {
		t.Fatalf("%d layers vs %d", len(a.layers), len(b.layers))
	}
	for li := range a.layers {
		la, lb := &a.layers[li], &b.layers[li]
		sameFloats(t, li, "w", la.w.Data, lb.w.Data)
		sameFloats(t, li, "bias", la.bias, lb.bias)
		samePacked(t, a.dev, li, la.pw, lb.pw, la.w.Rows, la.units, la.bias)
		for g := 0; g < 4; g++ {
			sameFloats(t, li, "wg", la.wg[g].Data, lb.wg[g].Data)
			sameFloats(t, li, "ug", la.ug[g].Data, lb.ug[g].Data)
			sameFloats(t, li, "gBias", la.gBias[g], lb.gBias[g])
			samePacked(t, a.dev, li, la.pwg[g], lb.pwg[g], la.wg[g].Rows, la.units, la.gBias[g])
			samePacked(t, a.dev, li, la.pwu[g], lb.pwu[g], la.units, la.units, nil)
		}
	}
}

func sameFloats(t *testing.T, li int, what string, a, b []float32) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("layer %d %s: %d values vs %d", li, what, len(a), len(b))
	}
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			t.Fatalf("layer %d %s[%d]: %v vs %v", li, what, i, a[i], b[i])
		}
	}
}

func samePacked(t *testing.T, dev device.Device, li int, a, b *blas.PackedB, k, n int, bias []float32) {
	t.Helper()
	if (a == nil) != (b == nil) {
		t.Fatalf("layer %d: packed weights on one side only", li)
	}
	if a == nil {
		return
	}
	in := dev.NewMat(7, k)
	for i := range in.Data {
		in.Data[i] = float32(i%13) - 6
	}
	outA, outB := dev.NewMat(7, n), dev.NewMat(7, n)
	dev.GemmBiasAct(in, a, bias, blas.ActNone, outA)
	dev.GemmBiasAct(in, b, bias, blas.ActNone, outB)
	sameFloats(t, li, "packed gemm", outA.Data, outB.Data)
	dev.Free(in)
	dev.Free(outA)
	dev.Free(outB)
}

// sameInference runs one MODEL JOIN over the same input with each model and
// checks the predictions bit for bit; it also routes the patched model's
// scratch through its pool.
func sameInference(t *testing.T, a, b *SharedModel, cols []int, inputs int, seed int64) {
	t.Helper()
	childA, _ := factBatches(t, 300, inputs, seed)
	childB, _ := factBatches(t, 300, inputs, seed)
	opA, err := newOp(childA, a, cols)
	if err != nil {
		t.Fatal(err)
	}
	opB, err := newOp(childB, b, cols)
	if err != nil {
		t.Fatal(err)
	}
	outA, outB := runOp(t, opA), runOp(t, opB)
	p := outA.Schema.Len() - 1
	sameFloats(t, -1, "prediction", outA.Vecs[p].Float32s(), outB.Vecs[p].Float32s())
}
