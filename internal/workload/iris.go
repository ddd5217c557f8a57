// Package workload provides the datasets and model shapes of the paper's
// evaluation (Sec. 6.1): the Iris dataset replicated to arbitrary fact-table
// sizes for the dense experiments, a generated sinus time series with
// self-join windowing for the LSTM experiments, and the model zoo spanning
// the paper's width × depth grid.
package workload

import (
	"indbml/internal/engine/storage"
	"indbml/internal/engine/types"
	"indbml/internal/engine/vector"
)

// IrisRow is one observation of Fisher's Iris dataset: four features and a
// class label (0 = setosa, 1 = versicolor, 2 = virginica).
type IrisRow struct {
	SepalLength, SepalWidth, PetalLength, PetalWidth float32
	Class                                            int
}

// Iris returns the 150 rows of the classic dataset (Fisher 1936), the
// real-world workload the paper's dense experiment replicates.
func Iris() []IrisRow { return irisData }

// IrisFeatureNames are the fact-table column names used for the features.
var IrisFeatureNames = []string{"sepal_length", "sepal_width", "petal_length", "petal_width"}

// IrisTable replicates the Iris dataset to n rows in a partitioned,
// ID-sorted fact table — the paper's "replicated to mimic varying fact
// table sizes" setup. Returns the table and the feature matrix for
// reference computations.
func IrisTable(name string, n, partitions int) (*storage.Table, [][]float32) {
	cols := []types.Column{{Name: "id", Type: types.Int64}}
	for _, f := range IrisFeatureNames {
		cols = append(cols, types.Column{Name: f, Type: types.Float32})
	}
	cols = append(cols, types.Column{Name: "class", Type: types.Int32})
	tbl := storage.NewTable(name, types.NewSchema(cols...), storage.Options{Partitions: partitions})
	tbl.SetSortedBy(0)
	tbl.SetUniqueKey(0)
	b := vector.NewBatch(tbl.Schema, n)
	b.SetLen(n)
	ids, class := b.Vecs[0].Int64s(), b.Vecs[len(cols)-1].Int32s()
	data := make([][]float32, n)
	for i := range n {
		r := irisData[i%len(irisData)]
		data[i] = []float32{r.SepalLength, r.SepalWidth, r.PetalLength, r.PetalWidth}
		ids[i] = int64(i)
		for f, x := range data[i] {
			b.Vecs[1+f].Float32s()[i] = x
		}
		class[i] = int32(r.Class)
	}
	_ = tbl.Append(b) // cannot fail: b has the table's schema
	return tbl, data
}

// irisData is the canonical UCI Iris dataset.
var irisData = []IrisRow{
	{5.1, 3.5, 1.4, 0.2, 0}, {4.9, 3.0, 1.4, 0.2, 0}, {4.7, 3.2, 1.3, 0.2, 0}, {4.6, 3.1, 1.5, 0.2, 0},
	{5.0, 3.6, 1.4, 0.2, 0}, {5.4, 3.9, 1.7, 0.4, 0}, {4.6, 3.4, 1.4, 0.3, 0}, {5.0, 3.4, 1.5, 0.2, 0},
	{4.4, 2.9, 1.4, 0.2, 0}, {4.9, 3.1, 1.5, 0.1, 0}, {5.4, 3.7, 1.5, 0.2, 0}, {4.8, 3.4, 1.6, 0.2, 0},
	{4.8, 3.0, 1.4, 0.1, 0}, {4.3, 3.0, 1.1, 0.1, 0}, {5.8, 4.0, 1.2, 0.2, 0}, {5.7, 4.4, 1.5, 0.4, 0},
	{5.4, 3.9, 1.3, 0.4, 0}, {5.1, 3.5, 1.4, 0.3, 0}, {5.7, 3.8, 1.7, 0.3, 0}, {5.1, 3.8, 1.5, 0.3, 0},
	{5.4, 3.4, 1.7, 0.2, 0}, {5.1, 3.7, 1.5, 0.4, 0}, {4.6, 3.6, 1.0, 0.2, 0}, {5.1, 3.3, 1.7, 0.5, 0},
	{4.8, 3.4, 1.9, 0.2, 0}, {5.0, 3.0, 1.6, 0.2, 0}, {5.0, 3.4, 1.6, 0.4, 0}, {5.2, 3.5, 1.5, 0.2, 0},
	{5.2, 3.4, 1.4, 0.2, 0}, {4.7, 3.2, 1.6, 0.2, 0}, {4.8, 3.1, 1.6, 0.2, 0}, {5.4, 3.4, 1.5, 0.4, 0},
	{5.2, 4.1, 1.5, 0.1, 0}, {5.5, 4.2, 1.4, 0.2, 0}, {4.9, 3.1, 1.5, 0.2, 0}, {5.0, 3.2, 1.2, 0.2, 0},
	{5.5, 3.5, 1.3, 0.2, 0}, {4.9, 3.6, 1.4, 0.1, 0}, {4.4, 3.0, 1.3, 0.2, 0}, {5.1, 3.4, 1.5, 0.2, 0},
	{5.0, 3.5, 1.3, 0.3, 0}, {4.5, 2.3, 1.3, 0.3, 0}, {4.4, 3.2, 1.3, 0.2, 0}, {5.0, 3.5, 1.6, 0.6, 0},
	{5.1, 3.8, 1.9, 0.4, 0}, {4.8, 3.0, 1.4, 0.3, 0}, {5.1, 3.8, 1.6, 0.2, 0}, {4.6, 3.2, 1.4, 0.2, 0},
	{5.3, 3.7, 1.5, 0.2, 0}, {5.0, 3.3, 1.4, 0.2, 0},
	{7.0, 3.2, 4.7, 1.4, 1}, {6.4, 3.2, 4.5, 1.5, 1}, {6.9, 3.1, 4.9, 1.5, 1}, {5.5, 2.3, 4.0, 1.3, 1},
	{6.5, 2.8, 4.6, 1.5, 1}, {5.7, 2.8, 4.5, 1.3, 1}, {6.3, 3.3, 4.7, 1.6, 1}, {4.9, 2.4, 3.3, 1.0, 1},
	{6.6, 2.9, 4.6, 1.3, 1}, {5.2, 2.7, 3.9, 1.4, 1}, {5.0, 2.0, 3.5, 1.0, 1}, {5.9, 3.0, 4.2, 1.5, 1},
	{6.0, 2.2, 4.0, 1.0, 1}, {6.1, 2.9, 4.7, 1.4, 1}, {5.6, 2.9, 3.6, 1.3, 1}, {6.7, 3.1, 4.4, 1.4, 1},
	{5.6, 3.0, 4.5, 1.5, 1}, {5.8, 2.7, 4.1, 1.0, 1}, {6.2, 2.2, 4.5, 1.5, 1}, {5.6, 2.5, 3.9, 1.1, 1},
	{5.9, 3.2, 4.8, 1.8, 1}, {6.1, 2.8, 4.0, 1.3, 1}, {6.3, 2.5, 4.9, 1.5, 1}, {6.1, 2.8, 4.7, 1.2, 1},
	{6.4, 2.9, 4.3, 1.3, 1}, {6.6, 3.0, 4.4, 1.4, 1}, {6.8, 2.8, 4.8, 1.4, 1}, {6.7, 3.0, 5.0, 1.7, 1},
	{6.0, 2.9, 4.5, 1.5, 1}, {5.7, 2.6, 3.5, 1.0, 1}, {5.5, 2.4, 3.8, 1.1, 1}, {5.5, 2.4, 3.7, 1.0, 1},
	{5.8, 2.7, 3.9, 1.2, 1}, {6.0, 2.7, 5.1, 1.6, 1}, {5.4, 3.0, 4.5, 1.5, 1}, {6.0, 3.4, 4.5, 1.6, 1},
	{6.7, 3.1, 4.7, 1.5, 1}, {6.3, 2.3, 4.4, 1.3, 1}, {5.6, 3.0, 4.1, 1.3, 1}, {5.5, 2.5, 4.0, 1.3, 1},
	{5.5, 2.6, 4.4, 1.2, 1}, {6.1, 3.0, 4.6, 1.4, 1}, {5.8, 2.6, 4.0, 1.2, 1}, {5.0, 2.3, 3.3, 1.0, 1},
	{5.6, 2.7, 4.2, 1.3, 1}, {5.7, 3.0, 4.2, 1.2, 1}, {5.7, 2.9, 4.2, 1.3, 1}, {6.2, 2.9, 4.3, 1.3, 1},
	{5.1, 2.5, 3.0, 1.1, 1}, {5.7, 2.8, 4.1, 1.3, 1},
	{6.3, 3.3, 6.0, 2.5, 2}, {5.8, 2.7, 5.1, 1.9, 2}, {7.1, 3.0, 5.9, 2.1, 2}, {6.3, 2.9, 5.6, 1.8, 2},
	{6.5, 3.0, 5.8, 2.2, 2}, {7.6, 3.0, 6.6, 2.1, 2}, {4.9, 2.5, 4.5, 1.7, 2}, {7.3, 2.9, 6.3, 1.8, 2},
	{6.7, 2.5, 5.8, 1.8, 2}, {7.2, 3.6, 6.1, 2.5, 2}, {6.5, 3.2, 5.1, 2.0, 2}, {6.4, 2.7, 5.3, 1.9, 2},
	{6.8, 3.0, 5.5, 2.1, 2}, {5.7, 2.5, 5.0, 2.0, 2}, {5.8, 2.8, 5.1, 2.4, 2}, {6.4, 3.2, 5.3, 2.3, 2},
	{6.5, 3.0, 5.5, 1.8, 2}, {7.7, 3.8, 6.7, 2.2, 2}, {7.7, 2.6, 6.9, 2.3, 2}, {6.0, 2.2, 5.0, 1.5, 2},
	{6.9, 3.2, 5.7, 2.3, 2}, {5.6, 2.8, 4.9, 2.0, 2}, {7.7, 2.8, 6.7, 2.0, 2}, {6.3, 2.7, 4.9, 1.8, 2},
	{6.7, 3.3, 5.7, 2.1, 2}, {7.2, 3.2, 6.0, 1.8, 2}, {6.2, 2.8, 4.8, 1.8, 2}, {6.1, 3.0, 4.9, 1.8, 2},
	{6.4, 2.8, 5.6, 2.1, 2}, {7.2, 3.0, 5.8, 1.6, 2}, {7.4, 2.8, 6.1, 1.9, 2}, {7.9, 3.8, 6.4, 2.0, 2},
	{6.4, 2.8, 5.6, 2.2, 2}, {6.3, 2.8, 5.1, 1.5, 2}, {6.1, 2.6, 5.6, 1.4, 2}, {7.7, 3.0, 6.1, 2.3, 2},
	{6.3, 3.4, 5.6, 2.4, 2}, {6.4, 3.1, 5.5, 1.8, 2}, {6.0, 3.0, 4.8, 1.8, 2}, {6.9, 3.1, 5.4, 2.1, 2},
	{6.7, 3.1, 5.6, 2.4, 2}, {6.9, 3.1, 5.1, 2.3, 2}, {5.8, 2.7, 5.1, 1.9, 2}, {6.8, 3.2, 5.9, 2.3, 2},
	{6.7, 3.3, 5.7, 2.5, 2}, {6.7, 3.0, 5.2, 2.3, 2}, {6.3, 2.5, 5.0, 1.9, 2}, {6.5, 3.0, 5.2, 2.0, 2},
	{6.2, 3.4, 5.4, 2.3, 2}, {5.9, 3.0, 5.1, 1.8, 2},
}
