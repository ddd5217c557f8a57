package workload

import (
	"math"
	"testing"

	"indbml/internal/engine/db"
)

func TestIrisDataset(t *testing.T) {
	rows := Iris()
	if len(rows) != 150 {
		t.Fatalf("iris has %d rows, want 150", len(rows))
	}
	counts := map[int]int{}
	for _, r := range rows {
		counts[r.Class]++
		if r.SepalLength < 4 || r.SepalLength > 8 || r.PetalWidth < 0 || r.PetalWidth > 3 {
			t.Fatalf("implausible iris row: %+v", r)
		}
	}
	for c := 0; c < 3; c++ {
		if counts[c] != 50 {
			t.Errorf("class %d has %d rows, want 50", c, counts[c])
		}
	}
}

func TestIrisTableReplication(t *testing.T) {
	tbl, data := IrisTable("iris", 450, 3)
	if tbl.RowCount() != 450 || len(data) != 450 {
		t.Fatalf("rows = %d", tbl.RowCount())
	}
	if tbl.SortedBy() != 0 || tbl.UniqueKey() != 0 {
		t.Error("iris table must declare id sorted + unique")
	}
	// Row 150 replicates row 0.
	if data[150][0] != data[0][0] {
		t.Error("replication wrong")
	}
	// Schema has id + 4 features + class.
	if tbl.Schema.Len() != 6 {
		t.Errorf("schema: %s", tbl.Schema)
	}
}

func TestSinusSeries(t *testing.T) {
	s := SinusSeries(100, 0.1)
	if len(s) != 100 || s[0] != 0 {
		t.Fatalf("series start wrong: %v", s[:3])
	}
	if math.Abs(float64(s[10])-math.Sin(1)) > 1e-6 {
		t.Errorf("s[10] = %v, want sin(1)", s[10])
	}
}

func TestWindowedSeriesTable(t *testing.T) {
	series := []float32{1, 2, 3, 4, 5}
	tbl, data := WindowedSeriesTable("w", series, 3, 2)
	if tbl.RowCount() != 3 || len(data) != 3 {
		t.Fatalf("windows = %d, want 3", tbl.RowCount())
	}
	if data[0][0] != 1 || data[0][2] != 3 || data[2][0] != 3 || data[2][2] != 5 {
		t.Errorf("window content wrong: %v", data)
	}
}

// TestSelfJoinWindowSQLEquivalence: the SQL self-join idiom must produce
// exactly the rows WindowedSeriesTable materializes.
func TestSelfJoinWindowSQLEquivalence(t *testing.T) {
	series := SinusSeries(200, 0.3)
	d := db.Open(db.Options{})
	d.RegisterTable(SeriesTable("s", series, 2))
	_, want := WindowedSeriesTable("unused", series, 3, 1)

	q := SelfJoinWindowSQL("s", 3)
	res, err := d.Query("SELECT * FROM (" + q + ") AS w ORDER BY id")
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != len(want) {
		t.Fatalf("self-join produced %d windows, want %d", res.Len(), len(want))
	}
	for r := 0; r < res.Len(); r++ {
		for s := 0; s < 3; s++ {
			if res.Vecs[1+s].Float32s()[r] != want[r][s] {
				t.Fatalf("window %d step %d: %v vs %v", r, s, res.Vecs[1+s].Float32s()[r], want[r][s])
			}
		}
	}
}

func TestModelZooShapes(t *testing.T) {
	m := DenseModel(128, 4)
	if m.InputDim() != 4 || m.OutputDim() != 1 || len(m.Layers) != 5 {
		t.Errorf("dense zoo model shape wrong: in=%d out=%d layers=%d", m.InputDim(), m.OutputDim(), len(m.Layers))
	}
	// Same (width, depth) must give identical weights (seeded).
	m2 := DenseModel(128, 4)
	a := m.Predict([]float32{1, 2, 3, 4})
	b := m2.Predict([]float32{1, 2, 3, 4})
	if a[0] != b[0] {
		t.Error("zoo models not reproducible")
	}
	l := LSTMModel(32)
	if l.InputDim() != LSTMTimeSteps || l.OutputDim() != 1 {
		t.Errorf("lstm zoo model shape wrong: in=%d out=%d", l.InputDim(), l.OutputDim())
	}
}

func TestWindowColumnNames(t *testing.T) {
	names := WindowColumnNames(3)
	if len(names) != 3 || names[0] != "t0" || names[2] != "t2" {
		t.Errorf("names = %v", names)
	}
}
