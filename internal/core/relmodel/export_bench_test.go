package relmodel

import (
	"testing"

	"indbml/internal/nn"
)

// BenchmarkExport stores the benchmark's wide dense model (256×4 over 4
// inputs, one output) as a 4-partition pairs-layout model table: the
// model-table half of db.RegisterModel.
func BenchmarkExport(b *testing.B) {
	m := nn.NewDenseModel("wide", 4, 256, 4, 1, 1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, err := Export(m, ExportOptions{Partitions: 4}); err != nil {
			b.Fatal(err)
		}
	}
}
