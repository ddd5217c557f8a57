package relmodel

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"indbml/internal/engine/storage"
	"indbml/internal/engine/types"
	"indbml/internal/engine/vector"
	"indbml/internal/nn"
)

// TestGeneratedExportMatchesReference holds Export to the edge-sort export
// it replaced (reference_test.go) on random dense and LSTM shapes, both
// layouts and 1–5 partitions: every partition's rows bit for bit, and every
// block's key-column ranges and the blocks a layer filter prunes. Equal
// clustering means equal pruning.
func TestGeneratedExportMatchesReference(t *testing.T) {
	seed := time.Now().UnixNano()
	t.Logf("seed %d", seed)
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < 16; i++ {
		var m *nn.Model
		var desc string
		if rng.Intn(3) == 0 {
			units := 1 + rng.Intn(32)
			m = nn.NewLSTMModel("g", 1+rng.Intn(6), units, rng.Int63())
			desc = fmt.Sprintf("lstm units=%d", units)
		} else {
			in, width, depth, out := 1+rng.Intn(8), 1+rng.Intn(64), 1+rng.Intn(4), 1+rng.Intn(3)
			m = nn.NewDenseModel("g", in, width, depth, out, rng.Int63())
			desc = fmt.Sprintf("dense %d→%d×%d→%d", in, width, depth, out)
		}
		randomBiases(rng, m)
		for _, layout := range []Layout{LayoutPairs, LayoutNodeID} {
			opts := ExportOptions{Layout: layout, Partitions: 1 + rng.Intn(5)}
			got, meta, err := Export(m, opts)
			if err != nil {
				t.Fatalf("seed %d %s: %v", seed, desc, err)
			}
			want, _, err := referenceExport(m, opts)
			if err != nil {
				t.Fatalf("seed %d %s: %v", seed, desc, err)
			}
			sameTable(t, fmt.Sprintf("seed %d %s %v parts=%d", seed, desc, layout, opts.Partitions), got, want, meta)
		}
	}
}

// randomBiases fills the biases, which the model constructors leave zero,
// so a bias written to the wrong row shows.
func randomBiases(rng *rand.Rand, m *nn.Model) {
	for _, l := range m.Layers {
		var b []float32
		switch l := l.(type) {
		case *nn.Dense:
			b = l.B
		case *nn.LSTM:
			b = l.B
		}
		for i := range b {
			b[i] = rng.Float32()*2 - 1
		}
	}
}

func sameTable(t *testing.T, desc string, got, want *storage.Table, meta *Meta) {
	t.Helper()
	if got.Partitions() != want.Partitions() {
		t.Fatalf("%s: %d partitions, want %d", desc, got.Partitions(), want.Partitions())
	}
	nkeys := got.Schema.Len() - len(weightCols)
	gs, ws := got.Snapshot(), want.Snapshot()
	for p := 0; p < got.Partitions(); p++ {
		g, w := scanRows(t, gs, p, nil), scanRows(t, ws, p, nil)
		if err := sameRows(g, w); err != nil {
			t.Fatalf("%s: partition %d: %v", desc, p, err)
		}
		gb, wb := blockKeyRanges(t, gs, p, nkeys), blockKeyRanges(t, ws, p, nkeys)
		if fmt.Sprint(gb) != fmt.Sprint(wb) {
			t.Fatalf("%s: partition %d block key ranges %v, want %v", desc, p, gb, wb)
		}
		for l := range meta.Layers {
			f := layerFilter(meta, l)
			if gp, wp := prunedBlocks(t, gs, p, f), prunedBlocks(t, ws, p, f); gp != wp {
				t.Fatalf("%s: partition %d layer %d filter prunes %d blocks, want %d", desc, p, l, gp, wp)
			}
		}
	}
}

// scanRows reads partition p of a snapshot into one batch.
func scanRows(t *testing.T, s *storage.Snapshot, p int, filters []storage.RangeFilter) *vector.Batch {
	t.Helper()
	sc, err := s.NewScanner(p, nil, filters)
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

// sameRows compares two model-table batches, weights by their bits.
func sameRows(got, want *vector.Batch) error {
	if got.Len() != want.Len() {
		return fmt.Errorf("%d rows, want %d", got.Len(), want.Len())
	}
	for c, gv := range got.Vecs {
		wv := want.Vecs[c]
		for r := 0; r < got.Len(); r++ {
			same := false
			if gv.Type() == types.Int32 {
				same = gv.Int32s()[r] == wv.Int32s()[r]
			} else {
				same = math.Float32bits(gv.Float32s()[r]) == math.Float32bits(wv.Float32s()[r])
			}
			if !same {
				return fmt.Errorf("row %d column %s is %v, want %v", r, got.Schema.Col(c).Name, gv.Datum(r), wv.Datum(r))
			}
		}
	}
	return nil
}

// blockKeyRanges lists, per block of partition p, the [min, max] of each
// key column: what the block's zone maps hold.
func blockKeyRanges(t *testing.T, s *storage.Snapshot, p, nkeys int) [][][2]int32 {
	t.Helper()
	var out [][][2]int32
	rows := scanRows(t, s, p, nil).Len()
	for bi, seen := 0, 0; seen < rows; bi++ {
		sc, err := s.ScanBlock(storage.BlockRef{Part: p, Block: bi}, nil)
		if err != nil {
			t.Fatal(err)
		}
		buf := vector.NewBatch(sc.Schema(), vector.Size)
		ranges := make([][2]int32, nkeys)
		for k := range ranges {
			ranges[k] = [2]int32{math.MaxInt32, math.MinInt32}
		}
		for sc.Next(buf) {
			seen += buf.Len()
			for k := range ranges {
				for _, v := range buf.Vecs[k].Int32s() {
					ranges[k] = [2]int32{min(ranges[k][0], v), max(ranges[k][1], v)}
				}
			}
		}
		out = append(out, ranges)
	}
	return out
}

// layerFilter is the zone-map predicate the generated queries put on layer
// l: layer = l in LayoutPairs, a node-id range in LayoutNodeID.
func layerFilter(meta *Meta, l int) storage.RangeFilter {
	if meta.Layout == LayoutPairs {
		v := types.Int32Datum(int32(l))
		return storage.RangeFilter{Col: 2, Lo: &v, Hi: &v}
	}
	lo, hi := meta.NodeRange(l)
	dlo, dhi := types.Int32Datum(int32(lo)), types.Int32Datum(int32(hi))
	return storage.RangeFilter{Col: 1, Lo: &dlo, Hi: &dhi}
}

func prunedBlocks(t *testing.T, s *storage.Snapshot, p int, f storage.RangeFilter) int {
	t.Helper()
	sc, err := s.NewScanner(p, nil, []storage.RangeFilter{f})
	if err != nil {
		t.Fatal(err)
	}
	buf := vector.NewBatch(sc.Schema(), vector.Size)
	for sc.Next(buf) {
	}
	return sc.PrunedBlocks
}

// TestExportAllocatesInProportionToTable: Export allocates the batch it
// hands to Append and little else, whatever the edge count. The bound is
// twice that batch plus what Append allocates storing it.
func TestExportAllocatesInProportionToTable(t *testing.T) {
	m := nn.NewDenseModel("wide", 4, 256, 4, 1, 1)
	opts := ExportOptions{Partitions: 4}
	tbl, _, err := Export(m, opts)
	if err != nil {
		t.Fatal(err)
	}
	batch := vector.NewBatch(tbl.Schema, 0)
	snap := tbl.Snapshot()
	for p := 0; p < tbl.Partitions(); p++ {
		batch.AppendBatch(scanRows(t, snap, p, nil))
	}
	batchBytes := uint64(batch.Len() * 4 * batch.Schema.Len())
	appendBytes := allocatedBytes(func() {
		if err := storage.NewTable("wide", tbl.Schema, storage.Options{Partitions: opts.Partitions}).Append(batch); err != nil {
			t.Fatal(err)
		}
	})
	exportBytes := allocatedBytes(func() {
		if _, _, err := Export(m, opts); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("Export allocates %d bytes: batch %d, Append %d", exportBytes, batchBytes, appendBytes)
	if bound := 2*batchBytes + appendBytes; exportBytes >= bound {
		t.Errorf("Export allocates %d bytes for a %d-byte batch (Append %d): want below %d", exportBytes, batchBytes, appendBytes, bound)
	}
}

// allocatedBytes returns the fewest heap bytes f allocated over three runs.
func allocatedBytes(f func()) uint64 {
	least := uint64(math.MaxUint64)
	for i := 0; i < 3; i++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	return least
}
