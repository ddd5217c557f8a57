package workload

import (
	"math"

	"indbml/internal/engine/storage"
	"indbml/internal/engine/types"
	"indbml/internal/engine/vector"
)

// SinusSeries generates n samples of the paper's synthetic time series:
// sin(i·step), plus nothing else — the paper argues prediction runtime is
// independent of the actual function, and a generated sinus is reproducible
// (Sec. 6.1).
func SinusSeries(n int, step float64) []float32 {
	out := make([]float32, n)
	for i := range out {
		out[i] = float32(math.Sin(float64(i) * step))
	}
	return out
}

// SeriesTable materializes a raw univariate series as (ts BIGINT, value
// REAL) — the natural storage shape for IoT measurements.
func SeriesTable(name string, series []float32, partitions int) *storage.Table {
	tbl := storage.NewTable(name, types.NewSchema(
		types.Column{Name: "ts", Type: types.Int64},
		types.Column{Name: "value", Type: types.Float32},
	), storage.Options{Partitions: partitions})
	tbl.SetSortedBy(0)
	tbl.SetUniqueKey(0)
	b := vector.NewBatch(tbl.Schema, len(series))
	b.SetLen(len(series))
	for i := range series {
		b.Vecs[0].Int64s()[i] = int64(i)
	}
	copy(b.Vecs[1].Float32s(), series)
	_ = tbl.Append(b) // cannot fail: b has the table's schema
	return tbl
}

// WindowColumnNames names the time-step columns of a windowed series table:
// t0 (oldest) … t{steps-1} (newest).
func WindowColumnNames(steps int) []string {
	names := make([]string, steps)
	for i := range names {
		names[i] = "t" + itoa(i)
	}
	return names
}

// WindowedSeriesTable turns a raw series into the LSTM input shape the
// paper assumes (Sec. 4): one row per forecast position with `steps`
// consecutive values as columns — the result of self-joining the series
// table steps−1 times on adjacent timestamps. Returns the table and the
// window matrix for reference computation.
func WindowedSeriesTable(name string, series []float32, steps, partitions int) (*storage.Table, [][]float32) {
	cols := []types.Column{{Name: "id", Type: types.Int64}}
	for _, c := range WindowColumnNames(steps) {
		cols = append(cols, types.Column{Name: c, Type: types.Float32})
	}
	tbl := storage.NewTable(name, types.NewSchema(cols...), storage.Options{Partitions: partitions})
	tbl.SetSortedBy(0)
	tbl.SetUniqueKey(0)
	n := max(len(series)-steps+1, 0)
	b := vector.NewBatch(tbl.Schema, n)
	b.SetLen(n)
	data := make([][]float32, n)
	for i := range n {
		b.Vecs[0].Int64s()[i] = int64(i)
		data[i] = append([]float32(nil), series[i:i+steps]...)
		for s, x := range data[i] {
			b.Vecs[1+s].Float32s()[i] = x
		}
	}
	_ = tbl.Append(b) // cannot fail: b has the table's schema
	return tbl, data
}

// SelfJoinWindowSQL renders the paper's windowing idiom as SQL: the series
// table self-joined steps−1 times with a predicate matching each tuple to
// its predecessor by timestamp (Sec. 4). The result has columns (id,
// t0..t{steps-1}) and can be used as a subquery feeding any inference
// approach.
func SelfJoinWindowSQL(table string, steps int) string {
	q := "SELECT s0.ts AS id"
	for i := 0; i < steps; i++ {
		q += ", s" + itoa(i) + ".value AS t" + itoa(i)
	}
	q += " FROM " + table + " AS s0"
	for i := 1; i < steps; i++ {
		q += ", " + table + " AS s" + itoa(i)
	}
	first := true
	for i := 1; i < steps; i++ {
		if first {
			q += " WHERE "
			first = false
		} else {
			q += " AND "
		}
		q += "s" + itoa(i) + ".ts = s0.ts + " + itoa(i)
	}
	return q
}

func itoa(i int) string {
	if i == 0 {
		return "0"
	}
	neg := i < 0
	if neg {
		i = -i
	}
	var b []byte
	for i > 0 {
		b = append([]byte{byte('0' + i%10)}, b...)
		i /= 10
	}
	if neg {
		return "-" + string(b)
	}
	return string(b)
}
