package relmodel

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"indbml/internal/engine/storage"
	"indbml/internal/engine/vector"
	"indbml/internal/nn"
)

func TestSchemaShapes(t *testing.T) {
	pairs := Schema(LayoutPairs)
	if pairs.Len() != 16 {
		t.Errorf("pairs layout has %d columns, the paper specifies 16", pairs.Len())
	}
	nodeID := Schema(LayoutNodeID)
	if nodeID.Len() != 14 {
		t.Errorf("node-id layout has %d columns, want 14", nodeID.Len())
	}
	for _, name := range []string{"layer_in", "node_in", "layer", "node", "w_i", "u_o", "b_c"} {
		if _, ok := pairs.Lookup(name); !ok {
			t.Errorf("pairs layout lacks column %q", name)
		}
	}
	if _, ok := nodeID.Lookup("layer"); ok {
		t.Error("node-id layout should not have a layer column")
	}
}

func TestExportEdgeCounts(t *testing.T) {
	// Dense width w depth d over 4 inputs: input edges (4) + 4·w + (d−1)·w²
	// + w·1 edges.
	m := nn.NewDenseModel("m", 4, 8, 2, 1, 1)
	tbl, meta, err := Export(m, ExportOptions{})
	if err != nil {
		t.Fatal(err)
	}
	want := 4 + 4*8 + 8*8 + 8*1
	if tbl.RowCount() != want {
		t.Errorf("edge rows = %d, want %d", tbl.RowCount(), want)
	}
	if meta.InputDim() != 4 || meta.OutputDim() != 1 {
		t.Errorf("meta dims wrong: %+v", meta)
	}
}

func TestExportLSTMEdgeCounts(t *testing.T) {
	// LSTM width w over univariate steps: input edges (w, enumerating the
	// LSTM nodes) + w² recurrent edges + w output-dense edges.
	m := nn.NewLSTMModel("lm", 3, 6, 1)
	tbl, meta, err := Export(m, ExportOptions{})
	if err != nil {
		t.Fatal(err)
	}
	want := 6 + 6*6 + 6
	if tbl.RowCount() != want {
		t.Errorf("edge rows = %d, want %d", tbl.RowCount(), want)
	}
	if meta.TimeSteps() != 3 {
		t.Errorf("time steps = %d", meta.TimeSteps())
	}
}

func TestNodeRanges(t *testing.T) {
	m := nn.NewDenseModel("m", 4, 8, 2, 3, 1)
	_, meta, err := Export(m, ExportOptions{Layout: LayoutNodeID})
	if err != nil {
		t.Fatal(err)
	}
	// Layers: input(4), dense(8), dense(8), out(3).
	lo, hi := meta.NodeRange(0)
	if lo != 0 || hi != 3 {
		t.Errorf("layer 0 range [%d,%d]", lo, hi)
	}
	lo, hi = meta.NodeRange(1)
	if lo != 4 || hi != 11 {
		t.Errorf("layer 1 range [%d,%d]", lo, hi)
	}
	lo, hi = meta.NodeRange(3)
	if lo != 20 || hi != 22 {
		t.Errorf("layer 3 range [%d,%d]", lo, hi)
	}
}

// TestRoundTripDense: Export → Import must reproduce the exact forward pass
// — the central property of the relational representation.
func TestRoundTripDense(t *testing.T) {
	for _, layout := range []Layout{LayoutPairs, LayoutNodeID} {
		for _, parts := range []int{1, 3} {
			m := nn.NewDenseModel("m", 4, 16, 3, 2, 42)
			tbl, meta, err := Export(m, ExportOptions{Layout: layout, Partitions: parts})
			if err != nil {
				t.Fatal(err)
			}
			back, err := Import(tbl, meta)
			if err != nil {
				t.Fatalf("layout=%v parts=%d: %v", layout, parts, err)
			}
			in := []float32{0.1, -0.5, 2.0, 0.7}
			want := m.Predict(append([]float32(nil), in...))
			got := back.Predict(append([]float32(nil), in...))
			for i := range want {
				if want[i] != got[i] {
					t.Fatalf("layout=%v parts=%d: output %d changed: %v vs %v", layout, parts, i, got[i], want[i])
				}
			}
		}
	}
}

func TestRoundTripLSTM(t *testing.T) {
	for _, layout := range []Layout{LayoutPairs, LayoutNodeID} {
		m := nn.NewLSTMModel("lm", 3, 8, 7)
		tbl, meta, err := Export(m, ExportOptions{Layout: layout, Partitions: 2})
		if err != nil {
			t.Fatal(err)
		}
		back, err := Import(tbl, meta)
		if err != nil {
			t.Fatal(err)
		}
		in := []float32{0.3, -0.2, 0.9}
		want := m.Predict(append([]float32(nil), in...))
		got := back.Predict(append([]float32(nil), in...))
		if math.Abs(float64(want[0]-got[0])) > 1e-7 {
			t.Fatalf("layout=%v: %v vs %v", layout, got[0], want[0])
		}
	}
}

// TestRoundTripProperty fuzzes shapes and checks forward-pass equality on
// random inputs.
func TestRoundTripProperty(t *testing.T) {
	err := quick.Check(func(seed int64, wRaw, dRaw, layoutRaw uint8) bool {
		width := int(wRaw)%12 + 1
		depth := int(dRaw)%3 + 1
		layout := Layout(layoutRaw % 2)
		m := nn.NewDenseModel("m", 4, width, depth, 2, seed)
		tbl, meta, err := Export(m, ExportOptions{Layout: layout})
		if err != nil {
			return false
		}
		back, err := Import(tbl, meta)
		if err != nil {
			return false
		}
		rng := rand.New(rand.NewSource(seed + 1))
		in := []float32{rng.Float32(), rng.Float32(), rng.Float32(), rng.Float32()}
		want := m.Predict(append([]float32(nil), in...))
		got := back.Predict(append([]float32(nil), in...))
		for i := range want {
			if math.Abs(float64(want[i]-got[i])) > 1e-6 {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 25})
	if err != nil {
		t.Error(err)
	}
}

func TestCompressionOfSparseWeightColumns(t *testing.T) {
	// Dense models leave 10 of 12 weight columns zero; the column store
	// must compress them to near nothing (Sec. 4.1).
	m := nn.NewDenseModel("m", 4, 64, 4, 1, 3)
	tbl, _, err := Export(m, ExportOptions{})
	if err != nil {
		t.Fatal(err)
	}
	rawSize := int64(tbl.RowCount()) * (4*4 + 12*4)
	if got := tbl.MemSize(); got > rawSize/2 {
		t.Errorf("model table takes %d bytes of raw %d: sparse columns not compressed", got, rawSize)
	}
}

func TestMetaRejectsMultivariateLSTM(t *testing.T) {
	l := nn.NewLSTM(2, 4, 3)
	m := &nn.Model{Name: "bad", Layers: []nn.Layer{l, nn.NewDense(4, 1, nn.Linear)}}
	if _, _, err := Export(m, ExportOptions{}); err == nil {
		t.Error("multivariate LSTM should be rejected")
	}
}

func TestSplitNodeID(t *testing.T) {
	m := nn.NewDenseModel("m", 4, 8, 1, 1, 1)
	tbl, meta, _ := Export(m, ExportOptions{Layout: LayoutNodeID})
	d, err := newDecoder(meta, tbl.Schema)
	if err != nil {
		t.Fatal(err)
	}
	if layer, node := d.node(-1); layer != -1 || node != 0 {
		t.Errorf("artificial node: layer %d node %d", layer, node)
	}
	if layer, node := d.node(7); layer != 1 || node != 3 {
		t.Errorf("node 7: layer %d node %d", layer, node)
	}
	for _, id := range []int32{13, 99, -2} {
		if layer, _ := d.node(id); layer != -2 {
			t.Errorf("out-of-range id %d decoded to layer %d", id, layer)
		}
	}
}

func TestWriteLoadSQLParseable(t *testing.T) {
	m := nn.NewDenseModel("tiny", 2, 3, 1, 1, 9)
	tbl, meta, err := Export(m, ExportOptions{TableName: "tiny_model"})
	if err != nil {
		t.Fatal(err)
	}
	var sb stringsBuilder
	if err := WriteLoadSQL(&sb, tbl, meta); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !containsAll(out, "CREATE TABLE tiny_model", "INSERT INTO tiny_model VALUES") {
		t.Errorf("load SQL malformed:\n%s", out)
	}
}

// TestImportRejectsDuplicateEdge: a dense layer must hold each edge exactly
// once. Row 10 of a 4→8→8→1 export is layer 1's edge 2→1; overwriting it
// with row 11 (edge 3→1) duplicates one edge and loses the other, whose
// weight would otherwise read 0. Dropping row 10 loses the edge alone.
func TestImportRejectsDuplicateEdge(t *testing.T) {
	for _, layout := range []Layout{LayoutPairs, LayoutNodeID} {
		m := nn.NewDenseModel("m", 4, 8, 2, 1, 5)
		tbl, meta, err := Export(m, ExportOptions{Layout: layout})
		if err != nil {
			t.Fatal(err)
		}
		rows := scanRows(t, tbl.Snapshot(), 0, nil)
		reimport := func(b *vector.Batch) error {
			bad := storage.NewTable("m", Schema(layout), storage.Options{})
			if err := bad.Append(b); err != nil {
				t.Fatal(err)
			}
			_, err := Import(bad, meta)
			return err
		}

		dup := scanRows(t, tbl.Snapshot(), 0, nil)
		for _, v := range dup.Vecs {
			v.SetDatum(10, v.Datum(11))
		}
		if err := reimport(dup); err == nil || !strings.Contains(err.Error(), "layer 1 has duplicate edge 3→1") {
			t.Errorf("%v: duplicated edge: got %v", layout, err)
		}

		var keep []int
		for r := 0; r < rows.Len(); r++ {
			if r != 10 {
				keep = append(keep, r)
			}
		}
		rows.Gather(keep)
		if err := reimport(rows); err == nil || !strings.Contains(err.Error(), "layer 1 missing edge 2→1") {
			t.Errorf("%v: dropped edge: got %v", layout, err)
		}
	}
}
