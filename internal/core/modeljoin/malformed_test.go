package modeljoin

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
	"time"

	"indbml/internal/core/relmodel"
	"indbml/internal/device"
	"indbml/internal/engine/exec"
	"indbml/internal/engine/storage"
	"indbml/internal/engine/types"
	"indbml/internal/engine/vector"
	"indbml/internal/nn"
)

// TestGeneratedMalformedModelTable breaks one model-layer row of a random
// model table — dense or LSTM, both layouts, 1–4 partitions — in one of five
// ways: the edge dropped, duplicated into another partition, moved to a
// foreign layer_in, given a node out of range, or given a NaN or ±Inf
// weight. A MODEL JOIN over it, on the CPU or GPU[sim] with a parallel or a
// serial build, must fail with the message relmodel.Import gives for the
// same table, and that message must name the edge. The unbroken table must
// build and import the model's weights bit for bit. Three fixed cases replay
// statements against a dense 4→8→8→1 model in two partitions that the build
// once accepted: the edge 5→3 into layer 2 deleted, its node_in set to 4,
// and its layer_in set to 0.
func TestGeneratedMalformedModelTable(t *testing.T) {
	seed := time.Now().UnixNano()
	t.Logf("seed %d", seed)
	rng := rand.New(rand.NewSource(seed))
	devs := []device.Device{device.NewCPU(), device.NewGPU(device.DefaultGPUConfig())}
	for _, dev := range devs {
		for _, layout := range []relmodel.Layout{relmodel.LayoutPairs, relmodel.LayoutNodeID} {
			for _, serial := range []bool{false, true} {
				for _, mut := range []string{"drop", "duplicate", "layer_in", "range", "non-finite"} {
					malformedCase(t, rng, dev, layout, serial, mut)
				}
			}
		}
	}

	model := nn.NewDenseModel("pm", 4, 8, 2, 1, 3)
	isEdge := func(b *vector.Batch, r int) bool {
		return b.Vecs[2].Int32s()[r] == 2 && b.Vecs[3].Int32s()[r] == 3 && b.Vecs[1].Int32s()[r] == 5
	}
	set := func(col int, v int32) func(*storage.Table) {
		return func(tbl *storage.Table) {
			_, err := tbl.Update([]int{0, 1, 2, 3}, nil, []int{col}, func(b *vector.Batch) ([]int, []*vector.Vector, error) {
				out := vector.New(types.Int32, b.Len())
				out.SetLen(b.Len())
				var hits []int
				for r := 0; r < b.Len(); r++ {
					if isEdge(b, r) {
						hits = append(hits, r)
						out.Int32s()[r] = v
					}
				}
				return hits, []*vector.Vector{out}, nil
			})
			if err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, c := range []struct {
		stmt string
		edit func(*storage.Table)
		want string
	}{
		{"DELETE FROM pm WHERE layer = 2 AND node = 3 AND node_in = 5", func(tbl *storage.Table) {
			if _, err := tbl.Delete([]int{0, 1, 2, 3}, nil, func(b *vector.Batch) ([]int, []*vector.Vector, error) {
				var hits []int
				for r := 0; r < b.Len(); r++ {
					if isEdge(b, r) {
						hits = append(hits, r)
					}
				}
				return hits, nil, nil
			}); err != nil {
				t.Fatal(err)
			}
		}, "relmodel: model pm layer 2 missing edge 5→3"},
		{"UPDATE pm SET node_in = 4 WHERE …", set(1, 4), "relmodel: model pm layer 2 has duplicate edge 4→3"},
		{"UPDATE pm SET layer_in = 0 WHERE …", set(0, 0), "relmodel: model pm layer 2 has edge 5→3 from layer 0"},
	} {
		for _, dev := range devs {
			for _, serial := range []bool{false, true} {
				tbl, meta, err := relmodel.Export(model, relmodel.ExportOptions{Partitions: 2})
				if err != nil {
					t.Fatal(err)
				}
				c.edit(tbl)
				if got := joinAndImportError(t, tbl, meta, dev, serial); got != c.want {
					t.Errorf("%s on %s serial=%v: got %q, want %q", c.stmt, dev.Name(), serial, got, c.want)
				}
			}
		}
	}
	for _, dev := range devs {
		if st := dev.Stats(); st.BytesAllocated != 0 {
			t.Fatalf("%s: %d device bytes still allocated", dev.Name(), st.BytesAllocated)
		}
	}
}

// malformedCase runs one generated case of TestGeneratedMalformedModelTable.
func malformedCase(t *testing.T, rng *rand.Rand, dev device.Device, layout relmodel.Layout, serial bool, mut string) {
	t.Helper()
	var model *nn.Model
	if rng.Intn(3) == 0 {
		model = nn.NewLSTMModel("g", 1+rng.Intn(5), 1+rng.Intn(8), rng.Int63())
	} else {
		model = nn.NewDenseModel("g", 1+rng.Intn(5), 1+rng.Intn(12), 1+rng.Intn(3), 1+rng.Intn(3), rng.Int63())
	}
	for _, l := range model.Layers {
		var b []float32
		switch l := l.(type) {
		case *nn.Dense:
			b = l.B
		case *nn.LSTM:
			b = l.B
		}
		for i := range b {
			b[i] = rng.Float32() - 0.5
		}
	}
	parts := 1 + rng.Intn(4)
	flat, meta, err := relmodel.Export(model, relmodel.ExportOptions{Layout: layout})
	if err != nil {
		t.Fatal(err)
	}
	rows := scanAll(t, flat)
	desc := fmt.Sprintf("%v %s on %s, %d partitions, serial=%v", meta.Layers, layout, dev.Name(), parts, serial)

	clean := tableOf(t, rows, layout, parts)
	sm := &SharedModel{Table: clean, Meta: meta, Dev: dev, Cfg: Config{SerialBuild: serial}}
	bm, err := sm.Build()
	if err != nil {
		t.Fatalf("%s: unbroken table: %v", desc, err)
	}
	for li := range bm.layers {
		sameWeights(t, desc+" build", bm.download(li), model.Layers[li])
	}
	sm.Release()
	back, err := relmodel.Import(clean, meta)
	if err != nil {
		t.Fatalf("%s: unbroken table: Import: %v", desc, err)
	}
	for li, l := range back.Layers {
		sameWeights(t, desc+" Import", l, model.Layers[li])
	}

	// Pick edge a→n into relational layer L ≥ 1; Export writes layer L's
	// rows after those of the layers before it, destination-major.
	L := 1 + rng.Intn(len(meta.Layers)-1)
	in, units := meta.Layers[L-1].Units, meta.Layers[L].Units
	a, n := rng.Intn(in), rng.Intn(units)
	r := n*in + a
	for l := 0; l < L; l++ {
		r += inUnits(meta, l) * meta.Layers[l].Units
	}
	var want string
	switch mut {
	case "drop":
		keep := make([]int, 0, rows.Len()-1)
		for i := 0; i < rows.Len(); i++ {
			if i != r {
				keep = append(keep, i)
			}
		}
		rows.Gather(keep)
		want = fmt.Sprintf("layer %d missing edge %d→%d", L, a, n)
	case "duplicate":
		// Insert a copy at j > r, in another partition when there is one:
		// Append deals row i to partition i mod parts.
		j := r + 1 + rng.Intn(rows.Len()-r)
		for parts > 1 && j%parts == r%parts {
			j = r + 1 + rng.Intn(rows.Len()-r)
		}
		out := vector.NewBatch(rows.Schema, rows.Len()+1)
		for i := 0; i < rows.Len(); i++ {
			if i == j {
				_ = out.AppendRow(rows.Row(r)...)
			}
			_ = out.AppendRow(rows.Row(i)...)
		}
		if j == rows.Len() {
			_ = out.AppendRow(rows.Row(r)...)
		}
		rows = out
		want = fmt.Sprintf("layer %d has duplicate edge %d→%d", L, a, n)
	case "layer_in":
		x := -1 + rng.Intn(len(meta.Layers))
		for x == L-1 {
			x = -1 + rng.Intn(len(meta.Layers))
		}
		xa := 0 // the artificial input layer -1 has the one node 0
		if x >= 0 {
			xa = a % meta.Layers[x].Units
		}
		setKey(rows, r, meta, x, xa, L, n)
		want = fmt.Sprintf("layer %d has edge %d→%d from layer %d", L, xa, n, x)
	case "range":
		if layout == relmodel.LayoutPairs {
			switch rng.Intn(3) {
			case 0:
				a = in + rng.Intn(3)
			case 1:
				n = units + rng.Intn(3)
			default:
				a = -1 - rng.Intn(3)
			}
			setKey(rows, r, meta, L-1, a, L, n)
			want = fmt.Sprintf("layer %d edge %d→%d out of range", L, a, n)
			break
		}
		// A node id in no layer: past the last, or below the artificial
		// input node's -1.
		ids := rows.Vecs[:2]
		bad := int32(meta.NodeOffset(len(meta.Layers)-1) + meta.OutputDim() + rng.Intn(3))
		if rng.Intn(2) == 0 {
			bad = int32(-2 - rng.Intn(3))
		}
		ids[rng.Intn(2)].Int32s()[r] = bad
		want = fmt.Sprintf("edge %d→%d (node ids) has a node id in no layer", ids[0].Int32s()[r], ids[1].Int32s()[r])
	case "non-finite":
		c := rng.Intn(12)
		v := []float32{float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1))}[rng.Intn(3)]
		col := rows.Vecs[layout.KeyColumns()+c]
		col.Float32s()[r] = v
		want = fmt.Sprintf("layer %d node %d: non-finite %s = %v on the edge from node %d", L, n, rows.Schema.Col(layout.KeyColumns()+c).Name, v, a)
	}
	got := joinAndImportError(t, tableOf(t, rows, layout, parts), meta, dev, serial)
	if !strings.Contains(got, want) {
		t.Errorf("%s, %s of edge %d→%d into layer %d: got %q, want it to name %q", desc, mut, a, n, L, got, want)
	}
}

// joinAndImportError runs a MODEL JOIN over the model table tbl and imports
// it, and returns the error both must fail with.
func joinAndImportError(t *testing.T, tbl *storage.Table, meta *relmodel.Meta, dev device.Device, serial bool) string {
	t.Helper()
	inputs := meta.InputDim()
	if ts := meta.TimeSteps(); ts > 0 {
		inputs = ts
	}
	cols := make([]int, inputs)
	for i := range cols {
		cols[i] = i + 1
	}
	sm := &SharedModel{Table: tbl, Meta: meta, Dev: dev, Cfg: Config{SerialBuild: serial}}
	child, _ := factBatches(t, 300, inputs, 1)
	op, err := newOp(child, sm, cols)
	if err != nil {
		t.Fatal(err)
	}
	_, joinErr := exec.Collect(op)
	sm.Release()
	_, importErr := relmodel.Import(tbl, meta)
	if joinErr == nil || importErr == nil {
		t.Fatalf("MODEL JOIN error %v, Import error %v: want both to fail", joinErr, importErr)
	}
	if joinErr.Error() != importErr.Error() {
		t.Fatalf("MODEL JOIN error %q, Import error %q: want the same", joinErr, importErr)
	}
	return joinErr.Error()
}

// setKey writes the edge a→n from relational layer layerIn into layer as
// row r's key.
func setKey(rows *vector.Batch, r int, meta *relmodel.Meta, layerIn, a, layer, n int) {
	if meta.Layout == relmodel.LayoutPairs {
		for c, v := range []int{layerIn, a, layer, n} {
			rows.Vecs[c].Int32s()[r] = int32(v)
		}
		return
	}
	id := func(l, node int) int32 {
		if l < 0 {
			return -1
		}
		return int32(meta.NodeOffset(l) + node)
	}
	rows.Vecs[0].Int32s()[r], rows.Vecs[1].Int32s()[r] = id(layerIn, a), id(layer, n)
}

// inUnits is the width feeding relational layer l: the artificial input
// node for layer 0.
func inUnits(meta *relmodel.Meta, l int) int {
	if l == 0 {
		return 1
	}
	return meta.Layers[l-1].Units
}

// scanAll reads a one-partition table's rows in order.
func scanAll(t *testing.T, tbl *storage.Table) *vector.Batch {
	t.Helper()
	sc, err := tbl.NewScanner(0, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	all := vector.NewBatch(sc.Schema(), 0)
	buf := vector.NewBatch(sc.Schema(), vector.Size)
	for sc.Next(buf) {
		all.AppendBatch(buf)
	}
	return all
}

// tableOf appends rows to a fresh model table of parts partitions: row i
// lands in partition i mod parts.
func tableOf(t *testing.T, rows *vector.Batch, layout relmodel.Layout, parts int) *storage.Table {
	t.Helper()
	tbl := storage.NewTable("g", relmodel.Schema(layout), storage.Options{Partitions: parts})
	if err := tbl.Append(rows); err != nil {
		t.Fatal(err)
	}
	return tbl
}

// sameWeights checks a decoded layer against the model layer it came from,
// bit for bit.
func sameWeights(t *testing.T, desc string, got, want nn.Layer) {
	t.Helper()
	if got.Kind() != want.Kind() {
		t.Fatalf("%s: layer kind %v, want %v", desc, got.Kind(), want.Kind())
	}
	switch w := want.(type) {
	case *nn.Dense:
		g := got.(*nn.Dense)
		if g.Act != w.Act {
			t.Fatalf("%s: activation %v, want %v", desc, g.Act, w.Act)
		}
		sameFloats(t, -1, desc+" W", g.W.Data, w.W.Data)
		sameFloats(t, -1, desc+" B", g.B, w.B)
	case *nn.LSTM:
		g := got.(*nn.LSTM)
		sameFloats(t, -1, desc+" W", g.W.Data, w.W.Data)
		sameFloats(t, -1, desc+" U", g.U.Data, w.U.Data)
		sameFloats(t, -1, desc+" B", g.B, w.B)
	}
}
