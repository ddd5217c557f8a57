package db_test

import (
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"indbml/internal/core/relmodel"
	"indbml/internal/engine/db"
	"indbml/internal/nn"
)

// TestDMLCommitsOnce: an UPDATE or DELETE touching all four partitions
// advances the table version by exactly one; one matching nothing leaves it
// alone.
func TestDMLCommitsOnce(t *testing.T) {
	d := db.Open(db.Options{DefaultPartitions: 4})
	for _, q := range []string{
		"CREATE TABLE t (id BIGINT, v INTEGER)",
		"INSERT INTO t VALUES (0, 0), (1, 1), (2, 2), (3, 3), (4, 4), (5, 5), (6, 6), (7, 7)",
	} {
		if err := d.Exec(q); err != nil {
			t.Fatal(err)
		}
	}
	tbl, err := d.Table("t")
	if err != nil {
		t.Fatal(err)
	}
	for p := 0; p < 4; p++ {
		if tbl.PartitionRows(p) != 2 {
			t.Fatalf("partition %d holds %d rows, want 2", p, tbl.PartitionRows(p))
		}
	}
	for _, c := range []struct {
		stmt string
		bump uint64
	}{
		{"UPDATE t SET v = v + 1", 1},
		{"UPDATE t SET v = 0 WHERE id > 100", 0},
		{"DELETE FROM t WHERE id > 100", 0},
		{"DELETE FROM t WHERE id < 4", 1},
	} {
		v := tbl.Version()
		if err := d.Exec(c.stmt); err != nil {
			t.Fatal(err)
		}
		if got := tbl.Version() - v; got != c.bump {
			t.Errorf("%s: version advanced by %d, want %d", c.stmt, got, c.bump)
		}
	}
	if n := queryInt64(t, d, "SELECT COUNT(*) FROM t WHERE v = id + 1"); n != 4 {
		t.Errorf("%d rows hold v = id + 1 after the statements, want 4", n)
	}
}

// TestModelJoinSeesWholeStatements races MODEL JOIN queries against
// UPDATEs that change the output-layer weights in every partition of a
// four-partition model table. Each result must equal the predictions of a
// fully applied prefix of the UPDATEs — never a statement half applied.
func TestModelJoinSeesWholeStatements(t *testing.T) {
	d := db.Open(db.Options{})
	data := makeFactTable(t, d, "fact", 200, 4, 1, 3)
	model := nn.NewDenseModel("mw", 4, 8, 2, 1, 5)
	if _, err := d.RegisterModel(model, relmodel.ExportOptions{Partitions: 4}); err != nil {
		t.Fatal(err)
	}
	const updates = 40
	out := model.Layers[len(model.Layers)-1].(*nn.Dense)
	refs := make([][][]float32, updates+1)
	for k := range refs {
		refs[k] = model.PredictBatch(data)
		for i := range out.W.Data {
			out.W.Data[i]++
		}
	}
	const q = "SELECT id, prediction FROM fact MODEL JOIN mw"
	done := make(chan struct{})
	var wg sync.WaitGroup
	var seen sync.Map
	var queries atomic.Int64
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				res, err := d.Query(q)
				if err != nil {
					t.Error(err)
					return
				}
				k := matchingVersion(res.Vecs[0].Int64s(), res.Vecs[1].Float32s(), refs)
				if k < 0 {
					t.Error("a MODEL JOIN result matches no fully applied version of the model")
					return
				}
				seen.Store(k, true)
				queries.Add(1)
			}
		}()
	}
	for k := 0; k < updates; k++ {
		if err := d.Exec("UPDATE mw SET w_i = w_i + 1 WHERE layer = 3"); err != nil {
			t.Fatal(err)
		}
		// Let the readers run a query or two against each version.
		for n := queries.Load(); queries.Load() < n+2 && !t.Failed(); {
			time.Sleep(20 * time.Microsecond)
		}
	}
	close(done)
	wg.Wait()
	versions := 0
	seen.Range(func(any, any) bool { versions++; return true })
	t.Logf("concurrent queries saw %d of %d versions", versions, updates+1)
	res, err := d.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if k := matchingVersion(res.Vecs[0].Int64s(), res.Vecs[1].Float32s(), refs); k != updates {
		t.Errorf("after every UPDATE the model matches version %d, want %d", k, updates)
	}
}

// matchingVersion returns the k whose reference predictions all rows match,
// or -1.
func matchingVersion(ids []int64, preds []float32, refs [][][]float32) int {
	for k, ref := range refs {
		ok := len(ids) == len(ref)
		for r := 0; ok && r < len(ids); r++ {
			ok = closeEnough(preds[r], ref[ids[r]][0])
		}
		if ok {
			return k
		}
	}
	return -1
}

// TestModelDeltaBuild drives the artifact cache through every build kind
// with SQL on both devices: a weight UPDATE patches the previous version's
// model (build=delta, a few column blocks read), a key-column UPDATE and a
// DELETE fall back cold with their reason, a non-finite weight fails the
// build and its repair rebuilds cold past the failed base. EXPLAIN ANALYZE
// renders the labels, predictions follow the reference model, every lookup
// after a change is still a cache miss, and DROP leaves no device memory.
func TestModelDeltaBuild(t *testing.T) {
	for _, dev := range []string{"cpu", "gpu"} {
		d, data, model := newModelDB(t, db.Options{}, "mc")
		q := mcQuery + " USING DEVICE '" + dev + "'"
		hidden := model.Layers[1].(*nn.Dense)
		outW := model.Layers[2].(*nn.Dense).W
		misses := d.ModelCacheStats().Misses
		for _, s := range []struct {
			stmt, build, reason string
			edit                func()
			fails               bool
		}{
			{stmt: "", build: "cold"},
			{stmt: "UPDATE mc SET w_i = 0.5 WHERE layer = 3 AND node = 0 AND node_in = 2", build: "delta", edit: func() { outW.Set(2, 0, 0.5) }},
			{stmt: "UPDATE mc SET w_i = w_i * 2, b_i = b_i - 1 WHERE layer = 2 AND node = 4", build: "delta", edit: func() {
				for i := 0; i < hidden.W.Rows; i++ {
					hidden.W.Set(i, 4, hidden.W.At(i, 4)*2)
				}
				hidden.B[4]--
			}},
			{stmt: "UPDATE mc SET node_in = node_in WHERE layer = 2", build: "cold", reason: "key_columns"},
			{stmt: "DELETE FROM mc WHERE layer = 0 AND node = 1", build: "cold", reason: "row_count"},
			{stmt: "UPDATE mc SET w_i = 1e39 WHERE layer = 3 AND node = 0 AND node_in = 1", fails: true},
			{stmt: "UPDATE mc SET w_i = 0.25 WHERE layer = 3 AND node = 0 AND node_in = 1", build: "cold", reason: "base_failed", edit: func() { outW.Set(1, 0, 0.25) }},
			{stmt: "UPDATE mc SET b_i = 0.125 WHERE layer = 3", build: "delta", edit: func() { model.Layers[2].(*nn.Dense).B[0] = 0.125 }},
		} {
			if s.stmt != "" {
				if err := d.Exec(s.stmt); err != nil {
					t.Fatal(err)
				}
			}
			if s.edit != nil {
				s.edit()
			}
			res, qt, err := queryAnalyze(d, q)
			if misses++; d.ModelCacheStats().Misses != misses {
				t.Errorf("%s %q: %d cache misses, want %d", dev, s.stmt, d.ModelCacheStats().Misses, misses)
			}
			if s.fails {
				if err == nil || !strings.Contains(err.Error(), "non-finite") {
					t.Errorf("%s %q: got %v, want a non-finite weight error", dev, s.stmt, err)
				}
				continue
			}
			if err != nil {
				t.Fatalf("%s %q: %v", dev, s.stmt, err)
			}
			checkPredictions(t, res, model.PredictBatch(data), len(data), 1)
			mj := modelJoinSpan(t, qt)
			if mj.Label("cache") != "miss" || mj.Label("build") != s.build || mj.Label("build_reason") != s.reason {
				t.Errorf("%s %q: cache=%s build=%s build_reason=%q, want miss/%s/%q", dev, s.stmt,
					mj.Label("cache"), mj.Label("build"), mj.Label("build_reason"), s.build, s.reason)
			}
			blocks := mj.Counter("build_blocks").Load()
			if blocks <= 0 {
				t.Errorf("%s %q: build_blocks = %d", dev, s.stmt, blocks)
			}
			rendered := qt.Render()
			for _, want := range []string{"build=" + s.build, "build_blocks="} {
				if !strings.Contains(rendered, want) {
					t.Errorf("%s %q: EXPLAIN ANALYZE output missing %q:\n%s", dev, s.stmt, want, rendered)
				}
			}
		}
		if err := d.Exec("DROP TABLE mc"); err != nil {
			t.Fatal(err)
		}
		if st := d.ModelCacheStats(); st.Entries != 0 {
			t.Errorf("%s: %d cache entries after DROP", dev, st.Entries)
		}
		if n := d.GPU().Stats().BytesAllocated + d.CPU().Stats().BytesAllocated; n != 0 {
			t.Errorf("%s: %d device bytes allocated after DROP: a pin or a base was leaked", dev, n)
		}
	}
}
