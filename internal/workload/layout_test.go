package workload

import (
	"testing"

	"indbml/internal/core/relmodel"
	"indbml/internal/engine/storage"
	"indbml/internal/engine/types"
	"indbml/internal/engine/vector"
	"indbml/internal/nn"
)

// partitionRows scans partition p of tbl and returns its rows in storage
// order together with the row count of each of its blocks.
func partitionRows(t *testing.T, tbl *storage.Table, p int) ([][]types.Datum, []int) {
	t.Helper()
	snap := tbl.Snapshot()
	sc, err := snap.NewScanner(p, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	var rows [][]types.Datum
	buf := vector.NewBatch(sc.Schema(), vector.Size)
	for sc.Next(buf) {
		for r := 0; r < buf.Len(); r++ {
			rows = append(rows, buf.Row(r))
		}
	}
	blocks := make([]int, sc.ScannedBlocks/tbl.Schema.Len())
	for bi := range blocks {
		bs, err := snap.ScanBlock(storage.BlockRef{Part: p, Block: bi}, []int{0})
		if err != nil {
			t.Fatal(err)
		}
		one := vector.NewBatch(bs.Schema(), vector.Size)
		for bs.Next(one) {
			blocks[bi] += one.Len()
		}
	}
	return rows, blocks
}

// checkDealt checks that tbl holds the rows of want dealt round-robin: row i
// in partition i mod P, in order, and that every block of a partition is
// full except its last.
func checkDealt(t *testing.T, name string, tbl *storage.Table, want [][]types.Datum) {
	t.Helper()
	nparts := tbl.Partitions()
	for p := 0; p < nparts; p++ {
		rows, blocks := partitionRows(t, tbl, p)
		if wantN := (len(want) - p + nparts - 1) / nparts; len(rows) != wantN {
			t.Fatalf("%s partition %d: %d rows, want %d", name, p, len(rows), wantN)
		}
		for k, row := range rows {
			for c, d := range row {
				if d.Compare(want[p+k*nparts][c]) != 0 {
					t.Fatalf("%s partition %d row %d col %d = %v, want row %d's %v", name, p, k, c, d, p+k*nparts, want[p+k*nparts][c])
				}
			}
		}
		for bi, n := range blocks {
			if bi < len(blocks)-1 && n != storage.BlockSize || n == 0 || n > storage.BlockSize {
				t.Fatalf("%s partition %d: block sizes %v, want %d except the last", name, p, blocks, storage.BlockSize)
			}
		}
	}
}

// TestLoadersDealRowsRoundRobin pins the layout the benchmark's iris and
// model tables are scanned in: row i of IrisTable and of relmodel.Export
// lands in partition i mod P, in order, with full blocks.
func TestLoadersDealRowsRoundRobin(t *testing.T) {
	const parts = 3
	n := 2*storage.BlockSize*parts + 100
	tbl, _ := IrisTable("iris", n, parts)
	want := make([][]types.Datum, n)
	for i := range want {
		r := irisData[i%len(irisData)]
		want[i] = []types.Datum{types.Int64Datum(int64(i)),
			types.Float32Datum(r.SepalLength), types.Float32Datum(r.SepalWidth),
			types.Float32Datum(r.PetalLength), types.Float32Datum(r.PetalWidth),
			types.Int32Datum(int32(r.Class))}
	}
	checkDealt(t, "IrisTable", tbl, want)
	for p := 0; p < parts; p++ {
		rows, _ := partitionRows(t, tbl, p)
		first, last := int64(p), int64(p+parts*(len(rows)-1))
		if rows[0][0].I64 != first || rows[len(rows)-1][0].I64 != last {
			t.Errorf("iris partition %d holds ids %d..%d, want %d..%d", p, rows[0][0].I64, rows[len(rows)-1][0].I64, first, last)
		}
	}

	// A one-partition export is the row order; a three-partition one must
	// deal exactly that sequence.
	m := nn.NewDenseModel("layout", 4, 128, 3, 2, 1)
	one, _, err := relmodel.Export(m, relmodel.ExportOptions{Partitions: 1})
	if err != nil {
		t.Fatal(err)
	}
	ordered, _ := partitionRows(t, one, 0)
	if len(ordered) <= storage.BlockSize*parts {
		t.Fatalf("model has %d edges, too few to fill a block per partition", len(ordered))
	}
	dealt, _, err := relmodel.Export(m, relmodel.ExportOptions{Partitions: parts})
	if err != nil {
		t.Fatal(err)
	}
	checkDealt(t, "relmodel.Export", dealt, ordered)
}
