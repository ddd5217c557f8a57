package db_test

import (
	"context"
	"strings"
	"sync"
	"testing"

	"indbml/internal/core/relmodel"
	"indbml/internal/engine/db"
	"indbml/internal/engine/sql"
	"indbml/internal/engine/vector"
	"indbml/internal/nn"
)

// newModelDB builds a database with a fact table (single partition so each
// query issues exactly one NewModelJoin call, keeping counters predictable)
// and a registered dense model.
func newModelDB(t *testing.T, opts db.Options, modelName string) (*db.Database, [][]float32, *nn.Model) {
	t.Helper()
	d := db.Open(opts)
	data := makeFactTable(t, d, "fact", 300, 4, 1, 61)
	model := nn.NewDenseModel(modelName, 4, 8, 2, 1, 13)
	if _, err := d.RegisterModel(model, relmodel.ExportOptions{Partitions: 2}); err != nil {
		t.Fatal(err)
	}
	return d, data, model
}

const mcQuery = "SELECT id, prediction FROM fact MODEL JOIN mc"

func TestModelCacheHitOnRepeat(t *testing.T) {
	d, data, model := newModelDB(t, db.Options{}, "mc")
	ref := model.PredictBatch(data)

	res, err := d.Query(mcQuery)
	if err != nil {
		t.Fatal(err)
	}
	checkPredictions(t, res, ref, len(data), 1)
	st := d.ModelCacheStats()
	if st.Misses != 1 || st.Hits != 0 || st.Entries != 1 {
		t.Fatalf("after first query: %+v, want 1 miss, 0 hits, 1 entry", st)
	}

	for i := 0; i < 3; i++ {
		if res, err = d.Query(mcQuery); err != nil {
			t.Fatal(err)
		}
		checkPredictions(t, res, ref, len(data), 1)
	}
	st = d.ModelCacheStats()
	if st.Misses != 1 || st.Hits != 3 {
		t.Errorf("after repeats: %+v, want 1 miss, 3 hits (build skipped)", st)
	}

	// Different device = different artifact: a gpu query must miss.
	if _, err := d.Query(mcQuery + " USING DEVICE 'gpu'"); err != nil {
		t.Fatal(err)
	}
	if st = d.ModelCacheStats(); st.Misses != 2 || st.Entries != 2 {
		t.Errorf("after gpu query: %+v, want 2 misses, 2 entries", st)
	}
}

// TestModelCacheInvalidation is the tentpole's correctness property: any DML
// on the model table bumps its version, so the next MODEL JOIN rebuilds
// instead of serving stale matrices.
func TestModelCacheInvalidation(t *testing.T) {
	d, data, model := newModelDB(t, db.Options{}, "mc")
	ref := model.PredictBatch(data)

	res, err := d.Query(mcQuery)
	if err != nil {
		t.Fatal(err)
	}
	checkPredictions(t, res, ref, len(data), 1)

	// INSERT a layer-0 row: ignored by the build (input edges carry no
	// weights), but the mutation must force a rebuild with equal results.
	if err := d.Exec("INSERT INTO mc (layer_in, node_in, layer, node) VALUES (0, 0, 0, 0)"); err != nil {
		t.Fatal(err)
	}
	if res, err = d.Query(mcQuery); err != nil {
		t.Fatal(err)
	}
	checkPredictions(t, res, ref, len(data), 1)
	st := d.ModelCacheStats()
	if st.Misses != 2 {
		t.Errorf("INSERT did not invalidate: %+v", st)
	}
	if st.Evictions == 0 {
		t.Errorf("stale entry not evicted on rebuild: %+v", st)
	}

	// DELETE the junk row: another rebuild, same predictions.
	if err := d.Exec("DELETE FROM mc WHERE layer = 0 AND layer_in = 0 AND node = 0 AND node_in = 0"); err != nil {
		t.Fatal(err)
	}
	if res, err = d.Query(mcQuery); err != nil {
		t.Fatal(err)
	}
	checkPredictions(t, res, ref, len(data), 1)
	if st = d.ModelCacheStats(); st.Misses != 3 {
		t.Errorf("DELETE did not invalidate: %+v", st)
	}

	// UPDATE zeroing the dense weights: the rebuild must pick up the new
	// contents — predictions change for essentially every row.
	if err := d.Exec("UPDATE mc SET w_i = 0 WHERE layer > 0"); err != nil {
		t.Fatal(err)
	}
	if res, err = d.Query(mcQuery); err != nil {
		t.Fatal(err)
	}
	if st = d.ModelCacheStats(); st.Misses != 4 {
		t.Errorf("UPDATE did not invalidate: %+v", st)
	}
	pi, _ := res.Schema.Lookup("prediction")
	changed := 0
	for r := 0; r < res.Len(); r++ {
		id := res.Vecs[0].Int64s()[r]
		if !closeEnough(res.Vecs[pi].Float32s()[r], ref[id][0]) {
			changed++
		}
	}
	if changed == 0 {
		t.Error("UPDATE of model weights served stale predictions")
	}

	// DROP evicts the model's artifacts.
	before := d.ModelCacheStats().Evictions
	if err := d.Exec("DROP TABLE mc"); err != nil {
		t.Fatal(err)
	}
	if st = d.ModelCacheStats(); st.Evictions <= before || st.Entries != 0 {
		t.Errorf("DROP did not evict cached artifacts: %+v", st)
	}
}

func TestModelCacheLRUBound(t *testing.T) {
	d := db.Open(db.Options{ModelCacheEntries: 1})
	data := makeFactTable(t, d, "fact", 200, 4, 1, 71)
	for _, name := range []string{"ma", "mb"} {
		if _, err := d.RegisterModel(nn.NewDenseModel(name, 4, 8, 1, 1, 3), relmodel.ExportOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	_ = data
	q := func(m string) {
		t.Helper()
		if _, err := d.Query("SELECT id, prediction FROM fact MODEL JOIN " + m); err != nil {
			t.Fatal(err)
		}
	}
	q("ma")
	q("mb") // evicts ma (capacity 1)
	st := d.ModelCacheStats()
	if st.Entries != 1 || st.Evictions != 1 {
		t.Fatalf("after overflow: %+v, want 1 entry, 1 eviction", st)
	}
	q("ma") // miss again
	if st = d.ModelCacheStats(); st.Misses != 3 || st.Hits != 0 {
		t.Errorf("LRU bound not enforced: %+v", st)
	}
}

// TestModelCacheConcurrentInvalidation races MODEL JOIN queries against DML
// on the model table. Every query must succeed and return a full result set
// (pre- or post-mutation model, both valid); run under -race this checks the
// invalidation path is clean.
func TestModelCacheConcurrentInvalidation(t *testing.T) {
	d, data, _ := newModelDB(t, db.Options{}, "mc")

	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 15; i++ {
				res, err := d.Query(mcQuery)
				if err != nil {
					t.Error(err)
					return
				}
				if res.Len() != len(data) {
					t.Errorf("query returned %d rows, want %d", res.Len(), len(data))
					return
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 15; i++ {
			if err := d.Exec("INSERT INTO mc (layer_in, node_in, layer, node) VALUES (0, 0, 0, 0)"); err != nil {
				t.Error(err)
				return
			}
			if err := d.Exec("DELETE FROM mc WHERE layer = 0 AND node_in = 0 AND node = 0"); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Wait()
}

// TestNonFiniteWeightRejected: the model table is validated data. A weight
// or bias that overflows float32 to Inf — here behind a ReLU unit, where the
// old zero-skipping kernel could hide it — must fail the build with the layer
// and node named, on a model created with CREATE MODEL TABLE and broken with
// UPDATE, and the model must work again once the value is repaired. The
// model arrives the way a coordinator replicates one: the CREATE MODEL
// TABLE statement, then its rows through the append entry a shard uses.
func TestNonFiniteWeightRejected(t *testing.T) {
	d := db.Open(db.Options{DefaultPartitions: 2, Parallelism: 2})
	makeFactTable(t, d, "fact", 300, 4, 2, 5)
	tbl, meta, err := relmodel.Export(nn.NewDenseModel("nf", 4, 8, 2, 1, 7), relmodel.ExportOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Exec(relmodel.CreateStatement(tbl, meta)); err != nil {
		t.Fatal(err)
	}
	rows := vector.NewBatch(tbl.Schema, 0)
	buf := vector.NewBatch(tbl.Schema, vector.Size)
	for p := range tbl.Partitions() {
		sc, err := tbl.NewScanner(p, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		for sc.Next(buf) {
			rows.AppendBatch(buf)
		}
	}
	if _, err := d.Run(context.Background(), sql.ParseNormalized("INSERT INTO nf", true), rows); err != nil {
		t.Fatal(err)
	}
	const q = "SELECT id, prediction FROM fact MODEL JOIN nf PREDICT (af0, bf1, cf2, df3)"
	if _, err := d.Query(q); err != nil {
		t.Fatalf("healthy model: %v", err)
	}
	for _, c := range []struct{ col, where, want string }{
		{"w_i", "layer = 2 AND node = 3 AND node_in = 5", "layer 2 node 3: non-finite w_i"},
		{"b_i", "layer = 1 AND node = 6 AND node_in = 0", "layer 1 node 6: non-finite b_i"},
	} {
		if err := d.Exec("UPDATE nf SET " + c.col + " = -1e39 WHERE " + c.where); err != nil {
			t.Fatal(err)
		}
		_, err := d.Query(q)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("MODEL JOIN over a model with %s = -Inf: got %v, want an error naming %q", c.col, err, c.want)
		}
		if err := d.Exec("UPDATE nf SET " + c.col + " = 0.25 WHERE " + c.where); err != nil {
			t.Fatal(err)
		}
		if _, err := d.Query(q); err != nil {
			t.Errorf("repaired model still fails: %v", err)
		}
	}
}
