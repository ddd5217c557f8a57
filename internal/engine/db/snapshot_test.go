package db_test

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"
	"time"

	"indbml/internal/core/mltosql"
	"indbml/internal/core/relmodel"
	"indbml/internal/engine/db"
	"indbml/internal/engine/vector"
	"indbml/internal/nn"
)

// predictionBits maps each id of an ML-To-SQL result to its prediction's
// bits.
func predictionBits(t *testing.T, res *vector.Batch) map[int64]uint32 {
	t.Helper()
	idIdx, _ := res.Schema.Lookup("id")
	predIdx, ok := res.Schema.Lookup("prediction")
	if !ok {
		t.Fatalf("result lacks a prediction column: %s", res.Schema)
	}
	out := make(map[int64]uint32, res.Len())
	for r := 0; r < res.Len(); r++ {
		out[res.Vecs[idIdx].Int64s()[r]] = math.Float32bits(res.Vecs[predIdx].Float32s()[r])
	}
	return out
}

// TestGeneratedMLToSQLSnapshotUnderUpdates runs the generated ML-To-SQL query
// of a random dense model, over 1–4 partitions at Parallelism 1–2, while a
// loop of UPDATEs flips the model's weights between two versions.
// Every row of every query must be the prediction of one version, computed
// serially beforehand, and all rows of a query the same version's: a
// statement reads each table at one version, however its partition plans
// interleave with the UPDATEs.
func TestGeneratedMLToSQLSnapshotUnderUpdates(t *testing.T) {
	seed := time.Now().UnixNano()
	t.Logf("seed %d", seed)
	rng := rand.New(rand.NewSource(seed))
	for iter := 0; iter < 4; iter++ {
		parts, par := 1+rng.Intn(4), 1+rng.Intn(2)
		width, depth, rows := 2+rng.Intn(15), 1+rng.Intn(2), 100+rng.Intn(700)
		what := fmt.Sprintf("iter %d: dense %dx%d, %d rows, %d partitions, parallelism %d", iter, width, depth, rows, parts, par)
		d := db.Open(db.Options{Parallelism: par})
		makeFactTable(t, d, "fact", rows, 4, parts, rng.Int63())
		meta, err := d.RegisterModel(nn.NewDenseModel("m", 4, width, depth, 1, rng.Int63()), relmodel.ExportOptions{Partitions: parts})
		if err != nil {
			t.Fatal(err)
		}
		gen, err := mltosql.New(meta, mltosql.Options{FactTable: "fact", ModelTable: "m", InputColumns: featNames(4), LayerFilter: true})
		if err != nil {
			t.Fatal(err)
		}
		q, err := gen.Generate()
		if err != nil {
			t.Fatal(err)
		}
		// One UPDATE negates every weight: the query reads the table
		// once per layer, and each of those reads must see the same version.
		update := func() error { return d.Exec("UPDATE m SET w_i = 0 - w_i") }
		var versions [2]map[int64]uint32
		for v := range versions {
			res, err := d.Query(q)
			if err != nil {
				t.Fatal(err)
			}
			versions[v] = predictionBits(t, res)
			if err := update(); err != nil {
				t.Fatal(err)
			}
		}

		stop, updates := make(chan struct{}), sync.WaitGroup{}
		updates.Add(1)
		go func() {
			defer updates.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if err := update(); err != nil {
					t.Error(err)
					return
				}
			}
		}()
		for k := 0; k < 25 && !t.Failed(); k++ {
			res, err := d.Query(q)
			if err != nil {
				t.Fatal(err)
			}
			got := predictionBits(t, res)
			if len(got) != rows {
				t.Errorf("%s: query %d returned %d ids, want %d", what, k, len(got), rows)
			}
			match := [2]int{}
			for id, bits := range got {
				for v := range versions {
					if versions[v][id] == bits {
						match[v]++
					}
				}
			}
			if match[0] != len(got) && match[1] != len(got) {
				t.Errorf("%s: query %d is torn: %d of %d rows are version 0's, %d version 1's", what, k, match[0], len(got), match[1])
			}
		}
		close(stop)
		updates.Wait()
	}
}
