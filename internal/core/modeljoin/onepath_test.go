package modeljoin

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"

	"indbml/internal/core/relmodel"
	"indbml/internal/device"
	"indbml/internal/engine/exec"
	"indbml/internal/engine/types"
	"indbml/internal/engine/vector"
	"indbml/internal/infersched"
	"indbml/internal/metrics"
	"indbml/internal/nn"
)

// TestGeneratedOnePath drives random models — dense (width, depth,
// activation) or LSTM (width, steps), on the CPU or GPU[sim] — down the one
// inference road: N rows split at random into 1–8 requests, each one
// operator instance over its own rows. The instances submit while parked
// passes fill the device gate, so all k requests pend and leave as one
// super-batch. Every request's predictions must be bit-equal to one
// RunPacked over that request alone — a row's result does not depend on the
// batch it travelled in — and within 1e-4 of nn. Afterwards no pins remain,
// and once the model is released the device arena is back to 0 bytes.
func TestGeneratedOnePath(t *testing.T) {
	seed := time.Now().UnixNano()
	t.Logf("seed %d", seed)
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < 16; i++ {
		onePathCase(t, rng)
	}
}

// parked is a Runner whose passes wait inside RunPacked, after signalling
// entered, until release is closed.
type parked struct {
	entered chan<- struct{}
	release <-chan struct{}
}

func (p *parked) InputDim() int  { return 1 }
func (p *parked) OutputDim() int { return 1 }
func (p *parked) RunPacked(int, []float32, []float32) (time.Duration, error) {
	p.entered <- struct{}{}
	<-p.release
	return 0, nil
}

// fillGate occupies every in-flight slot of device on sched with a parked
// pass and returns the function that lets them finish and waits for their
// submitters.
func fillGate(t *testing.T, sched *infersched.Scheduler, device string) (release func()) {
	t.Helper()
	entered := make(chan struct{}, infersched.MaxInFlight)
	rel := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < infersched.MaxInFlight; i++ {
		r := &parked{entered: entered, release: rel}
		label := infersched.Label{Model: fmt.Sprintf("parked%d", i), Device: device}
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := sched.Submit(context.Background(), label, r, 1, make([]float32, 1), make([]float32, 1)); err != nil {
				t.Error(err)
			}
		}()
	}
	for i := 0; i < infersched.MaxInFlight; i++ {
		<-entered
	}
	return func() {
		close(rel)
		wg.Wait()
	}
}

// waitDepth waits until STATUS reports n pending requests on sched.
func waitDepth(t *testing.T, sched *infersched.Scheduler, n int) {
	t.Helper()
	want := fmt.Sprintf(" depth=%d ", n)
	deadline := time.Now().Add(10 * time.Second)
	for line := sched.StatusLine(); !strings.Contains(line, want); line = sched.StatusLine() {
		if time.Now().After(deadline) {
			t.Fatalf("scheduler %s, want depth=%d", line, n)
		}
		time.Sleep(50 * time.Microsecond)
	}
}

// onePathCase runs one generated case.
func onePathCase(t *testing.T, rng *rand.Rand) {
	t.Helper()
	var dev device.Device = device.NewCPU()
	if rng.Intn(2) == 0 {
		dev = device.NewGPU(device.DefaultGPUConfig())
	}
	var model *nn.Model
	var desc string
	if rng.Intn(3) == 0 {
		steps, width := 2+rng.Intn(6), 1+rng.Intn(24)
		model = nn.NewLSTMModel("g", steps, width, rng.Int63())
		desc = fmt.Sprintf("lstm width=%d steps=%d", width, steps)
	} else {
		inputs, width, depth, outputs := 1+rng.Intn(6), 1+rng.Intn(48), 1+rng.Intn(3), 1+rng.Intn(3)
		model = nn.NewDenseModel("g", inputs, width, depth, outputs, rng.Int63())
		act := []nn.Activation{nn.Linear, nn.ReLU, nn.Sigmoid, nn.Tanh}[rng.Intn(4)]
		for _, l := range model.Layers[:depth] {
			l.(*nn.Dense).Act = act
		}
		desc = fmt.Sprintf("dense inputs=%d width=%d depth=%d act=%d outputs=%d", inputs, width, depth, act, outputs)
	}
	desc += " on " + dev.Name()
	sm := shared(t, model, dev, relmodel.LayoutPairs, 1+rng.Intn(3), Config{})
	bm, err := sm.Build()
	if err != nil {
		t.Fatalf("%s: %v", desc, err)
	}
	in, out := bm.InputDim(), bm.OutputDim()

	// Split N rows into k requests of at most one vector each.
	k := 1 + rng.Intn(8)
	bounds := []int{0}
	for i := 0; i < k; i++ {
		bounds = append(bounds, bounds[i]+1+rng.Intn(vector.Size))
	}
	n := bounds[k]
	data := make([][]float32, n)
	for r := range data {
		data[r] = make([]float32, in)
		for c := range data[r] {
			data[r][c] = rng.Float32()*2 - 1
		}
	}
	ref := model.PredictBatch(data)

	sched := infersched.New(metrics.NewRegistry())
	label := infersched.Label{Model: "g", Device: dev.Name()}
	release := fillGate(t, sched, dev.Name())
	cols := make([]int, in)
	for c := range cols {
		cols[c] = c
	}
	results := make([]*vector.Batch, k)
	errs := make([]error, k)
	var wg sync.WaitGroup
	for i := 0; i < k; i++ {
		op, err := New(valuesOf(data[bounds[i]:bounds[i+1]]), sm, cols, sched, label)
		if err != nil {
			t.Fatalf("%s: %v", desc, err)
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = exec.Collect(op)
		}(i)
	}
	waitDepth(t, sched, k)
	release()
	wg.Wait()
	var passes []infersched.BatchStat
	for _, b := range sched.BatchSnapshot() {
		if b.Model == "g" {
			passes = append(passes, b)
		}
	}
	if len(passes) != 1 || passes[0].Requests != k || passes[0].Rows != n {
		t.Fatalf("%s: %d requests of %d rows ran as %+v, want one super-batch", desc, k, n, passes)
	}

	for i := 0; i < k; i++ {
		if errs[i] != nil {
			t.Fatalf("%s request %d: %v", desc, i, errs[i])
		}
		lo, hi := bounds[i], bounds[i+1]
		alone := make([]float32, (hi-lo)*out)
		if _, err := bm.RunPacked(hi-lo, packRows(data, lo, hi), alone); err != nil {
			t.Fatalf("%s: %v", desc, err)
		}
		res := results[i]
		if res.Len() != hi-lo {
			t.Fatalf("%s request %d: %d rows, want %d", desc, i, res.Len(), hi-lo)
		}
		for j := 0; j < out; j++ {
			got := res.Vecs[in+j].Float32s()
			for r := range got {
				if math.Float32bits(got[r]) != math.Float32bits(alone[r*out+j]) {
					t.Fatalf("%s request %d row %d out %d: scheduled %v != alone %v", desc, i, r, j, got[r], alone[r*out+j])
				}
				want := float64(ref[lo+r][j])
				if math.Abs(float64(got[r])-want) > 1e-4+1e-4*math.Abs(want) {
					t.Fatalf("%s request %d row %d out %d: got %v want %v", desc, i, r, j, got[r], want)
				}
			}
		}
	}

	sm.mu.Lock()
	pins := sm.pins
	sm.mu.Unlock()
	if pins != 0 {
		t.Fatalf("%s: %d pins outstanding after every operator closed", desc, pins)
	}
	sm.Release()
	if st := dev.Stats(); st.BytesAllocated != 0 {
		t.Fatalf("%s: %d device bytes still allocated after release", desc, st.BytesAllocated)
	}
}

// valuesOf is a child of FLOAT columns c0.. holding rows in one batch.
func valuesOf(rows [][]float32) exec.Operator {
	cols := make([]types.Column, len(rows[0]))
	for c := range cols {
		cols[c] = types.Column{Name: fmt.Sprintf("c%d", c), Type: types.Float32}
	}
	schema := types.NewSchema(cols...)
	b := vector.NewBatch(schema, len(rows))
	for c := range cols {
		v := b.Vecs[c]
		v.SetLen(len(rows))
		for r, row := range rows {
			v.Float32s()[r] = row[c]
		}
	}
	b.SetLen(len(rows))
	return exec.NewValues(schema, b)
}

// scribbler is the harshest child the batch-ownership contract allows:
// every Next returns the same batch object, and before refilling it with
// the next source batch it overwrites what the previous call returned. An
// operator that reads its input after handing the batch on, or a consumer
// that keeps a reference instead of a copy, sees the scribble.
type scribbler struct {
	schema *types.Schema
	src    []*vector.Batch
	pos    int
	buf    *vector.Batch
}

func (s *scribbler) Schema() *types.Schema { return s.schema }
func (s *scribbler) Open() error {
	s.pos, s.buf = 0, vector.NewBatch(s.schema, vector.Size)
	return nil
}
func (s *scribbler) Close() error { return nil }

func (s *scribbler) Next() (*vector.Batch, error) {
	for _, v := range s.buf.Vecs {
		switch v.Type() {
		case types.Int64:
			for i := range v.Int64s() {
				v.Int64s()[i] = -999
			}
		case types.Float32:
			for i := range v.Float32s() {
				v.Float32s()[i] = float32(math.NaN())
			}
		}
	}
	if s.pos == len(s.src) {
		return nil, nil
	}
	s.buf.Reset()
	s.buf.AppendBatch(s.src[s.pos])
	s.pos++
	return s.buf, nil
}

// TestScribblingChild: the operator passes its child's vectors through by
// reference and writes predictions into vectors it owns, so both must stay
// intact exactly until its next Next. Over a scribbling child, results
// collected directly and through a retaining Exchange equal nn.
func TestScribblingChild(t *testing.T) {
	model := nn.NewDenseModel("m", 4, 16, 2, 2, 5)
	const rows = 2500
	schema, src, data := factData(rows, 4, 8)
	ref := model.PredictBatch(data)
	sm := shared(t, model, device.NewCPU(), relmodel.LayoutPairs, 2, Config{})
	op := func() exec.Operator {
		o, err := newOp(&scribbler{schema: schema, src: src}, sm, []int{1, 2, 3, 4})
		if err != nil {
			t.Fatal(err)
		}
		return o
	}

	out := runOp(t, op())
	if out.Len() != rows {
		t.Fatalf("Collect: %d rows, want %d", out.Len(), rows)
	}
	checkAgainstReference(t, out, ref, 2, 1e-4)

	ex, err := exec.NewExchange([]exec.Operator{op(), op()}, 2)
	if err != nil {
		t.Fatal(err)
	}
	out = runOp(t, ex)
	if out.Len() != 2*rows {
		t.Fatalf("Exchange: %d rows, want %d", out.Len(), 2*rows)
	}
	checkAgainstReference(t, out, ref, 2, 1e-4)
}
