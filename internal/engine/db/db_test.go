package db_test

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"indbml/internal/core/mltosql"
	"indbml/internal/core/relmodel"
	"indbml/internal/engine/db"
	"indbml/internal/engine/storage"
	"indbml/internal/engine/types"
	"indbml/internal/engine/vector"
	"indbml/internal/nn"
)

// makeFactTable builds a fact table with an int64 id (unique, sorted),
// nCols float32 feature columns, and a string payload column. Returns the
// feature rows for reference computation.
func makeFactTable(t *testing.T, d *db.Database, name string, rows, nCols, partitions int, seed int64) [][]float32 {
	t.Helper()
	cols := []types.Column{{Name: "id", Type: types.Int64}}
	colNames := []string{}
	for i := 0; i < nCols; i++ {
		cols = append(cols, types.Column{Name: featName(i), Type: types.Float32})
		colNames = append(colNames, featName(i))
	}
	cols = append(cols, types.Column{Name: "payload", Type: types.String})
	tbl := storage.NewTable(name, types.NewSchema(cols...), storage.Options{Partitions: partitions})
	tbl.SetSortedBy(0)
	tbl.SetUniqueKey(0)
	b := vector.NewBatch(tbl.Schema, rows)
	rng := rand.New(rand.NewSource(seed))
	data := make([][]float32, rows)
	for r := 0; r < rows; r++ {
		row := []types.Datum{types.Int64Datum(int64(r))}
		data[r] = make([]float32, nCols)
		for c := 0; c < nCols; c++ {
			data[r][c] = rng.Float32()*2 - 1
			row = append(row, types.Float32Datum(data[r][c]))
		}
		row = append(row, types.StringDatum("p"))
		if err := b.AppendRow(row...); err != nil {
			t.Fatal(err)
		}
	}
	if err := tbl.Append(b); err != nil {
		t.Fatal(err)
	}
	d.RegisterTable(tbl)
	return data
}

func featName(i int) string { return string(rune('a'+i%26)) + "f" + itoa(i) }

func itoa(i int) string {
	if i == 0 {
		return "0"
	}
	var b []byte
	for i > 0 {
		b = append([]byte{byte('0' + i%10)}, b...)
		i /= 10
	}
	return string(b)
}

func featNames(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = featName(i)
	}
	return out
}

func closeEnough(a, b float32) bool {
	d := float64(a - b)
	return math.Abs(d) <= 1e-3+1e-3*math.Abs(float64(b))
}

func TestSQLEndToEnd(t *testing.T) {
	d := db.Open(db.Options{DefaultPartitions: 1})
	mustExec := func(q string) {
		t.Helper()
		if err := d.Exec(q); err != nil {
			t.Fatalf("%s: %v", q, err)
		}
	}
	mustExec("CREATE TABLE emp (id BIGINT, dept INTEGER, salary DOUBLE, name VARCHAR)")
	mustExec("INSERT INTO emp VALUES (1, 10, 100.0, 'ann'), (2, 10, 200.0, 'bob'), (3, 20, 300.0, 'cal'), (4, 20, 50.5, 'dee')")

	res, err := d.Query("SELECT dept, SUM(salary) AS total, COUNT(*) AS n FROM emp GROUP BY dept ORDER BY dept")
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 2 {
		t.Fatalf("got %d groups: %s", res.Len(), res)
	}
	if res.Vecs[0].Int32s()[0] != 10 || res.Vecs[1].Float64s()[0] != 300 || res.Vecs[2].Int64s()[0] != 2 {
		t.Errorf("group 10 wrong: %s", res)
	}
	if res.Vecs[1].Float64s()[1] != 350.5 {
		t.Errorf("group 20 wrong: %s", res)
	}

	res, err = d.Query("SELECT name FROM emp WHERE salary > 150 AND dept = 20 ORDER BY name")
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 1 || res.Vecs[0].Strings()[0] != "cal" {
		t.Errorf("filter wrong: %s", res)
	}

	// Join (comma syntax with WHERE equality, the ML-To-SQL shape).
	mustExec("CREATE TABLE dept (dept INTEGER, dname VARCHAR)")
	mustExec("INSERT INTO dept VALUES (10, 'eng'), (20, 'ops')")
	res, err = d.Query("SELECT e.name, dp.dname FROM emp AS e, dept AS dp WHERE e.dept = dp.dept ORDER BY e.name")
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 4 || res.Vecs[1].Strings()[0] != "eng" {
		t.Errorf("join wrong: %s", res)
	}

	// Explicit JOIN ... ON syntax.
	res, err = d.Query("SELECT COUNT(*) AS n FROM emp AS e JOIN dept AS dp ON e.dept = dp.dept")
	if err != nil {
		t.Fatal(err)
	}
	if res.Vecs[0].Int64s()[0] != 4 {
		t.Errorf("join on wrong: %s", res)
	}

	// Scalar subquery-free nested FROM.
	res, err = d.Query("SELECT MAX(total) AS m FROM (SELECT dept, SUM(salary) AS total FROM emp GROUP BY dept) AS x")
	if err != nil {
		t.Fatal(err)
	}
	if res.Vecs[0].Float64s()[0] != 350.5 {
		t.Errorf("nested agg wrong: %s", res)
	}

	// DISTINCT, HAVING, LIMIT.
	res, err = d.Query("SELECT DISTINCT dept FROM emp ORDER BY dept LIMIT 1")
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 1 || res.Vecs[0].Int32s()[0] != 10 {
		t.Errorf("distinct/limit wrong: %s", res)
	}
	res, err = d.Query("SELECT dept FROM emp GROUP BY dept HAVING SUM(salary) > 320")
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 1 || res.Vecs[0].Int32s()[0] != 20 {
		t.Errorf("having wrong: %s", res)
	}

	// CASE and scalar functions.
	res, err = d.Query("SELECT CASE WHEN salary >= 200 THEN 'high' ELSE 'low' END AS band FROM emp ORDER BY id")
	if err != nil {
		t.Fatal(err)
	}
	if res.Vecs[0].Strings()[0] != "low" || res.Vecs[0].Strings()[1] != "high" {
		t.Errorf("case wrong: %s", res)
	}

	if err := d.Exec("DROP TABLE dept"); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Query("SELECT * FROM dept"); err == nil {
		t.Error("query after drop should fail")
	}
}

func TestQueryErrors(t *testing.T) {
	d := db.Open(db.Options{})
	if err := d.Exec("CREATE TABLE t (a INTEGER)"); err != nil {
		t.Fatal(err)
	}
	for _, q := range []string{
		"SELECT nope FROM t",
		"SELECT a FROM missing",
		"SELECT a FROM t WHERE a",               // non-boolean where
		"SELECT a, SUM(a) FROM t",               // a not grouped
		"SELECT SUM(a) FROM t WHERE SUM(a) > 1", // agg in where
		"SELECT t.a FROM t AS x",                // stale qualifier
	} {
		if _, err := d.Query(q); err == nil {
			t.Errorf("Query(%q) should fail", q)
		}
	}
	if err := d.Exec("CREATE TABLE t (a INTEGER)"); err == nil {
		t.Error("duplicate create should fail")
	}
}

// TestMLToSQLDenseEquivalence is the central correctness property of the
// reproduction: the generated SQL inference must equal the reference
// forward pass — within 1e-4 — for every width, depth, layout, layer-filter
// and activation emission mode. Weights and inputs are drawn from a fresh
// seed on every run; a failure logs it.
func TestMLToSQLDenseEquivalence(t *testing.T) {
	seed := time.Now().UnixNano()
	t.Cleanup(func() {
		if t.Failed() {
			t.Logf("seed %d", seed)
		}
	})
	const rows, inDim = 120, 4
	for _, width := range []int{1, 4, 32} {
		for _, depth := range []int{1, 2, 3} {
			for _, layout := range []relmodel.Layout{relmodel.LayoutPairs, relmodel.LayoutNodeID} {
				for _, native := range []bool{false, true} {
					for _, layerFilter := range []bool{false, true} {
						d := db.Open(db.Options{Parallelism: 4})
						data := makeFactTable(t, d, "fact", rows, inDim, 3, seed)
						model := nn.NewDenseModel("m1", inDim, width, depth, 1, seed+1)
						ref := model.PredictBatch(data)

						if _, err := d.RegisterModel(model, relmodel.ExportOptions{Layout: layout, Partitions: 2}); err != nil {
							t.Fatal(err)
						}
						meta, err := d.ModelMeta("m1")
						if err != nil {
							t.Fatal(err)
						}
						gen, err := mltosql.New(meta, mltosql.Options{
							FactTable: "fact", ModelTable: "m1", IDColumn: "id",
							InputColumns:    featNames(inDim),
							NativeFunctions: native, LayerFilter: layerFilter,
						})
						if err != nil {
							t.Fatal(err)
						}
						q, err := gen.Generate()
						if err != nil {
							t.Fatal(err)
						}
						res, err := d.Query(q)
						if err != nil {
							t.Fatalf("%dx%d layout=%v native=%v filter=%v: %v\n%s", width, depth, layout, native, layerFilter, err, q)
						}
						checkPredictionsTol(t, res, ref, rows, 1, 1e-4)
					}
				}
			}
		}
	}
}

// checkPredictions matches (id → prediction...) rows against the reference.
func checkPredictions(t *testing.T, res *vector.Batch, ref [][]float32, rows, outDim int) {
	t.Helper()
	checkPredictionsTol(t, res, ref, rows, outDim, 1e-3)
}

// checkPredictionsTol is checkPredictions with an explicit tolerance, absolute
// plus relative to the reference.
func checkPredictionsTol(t *testing.T, res *vector.Batch, ref [][]float32, rows, outDim int, tol float64) {
	t.Helper()
	if res.Len() != rows {
		t.Fatalf("result has %d rows, want %d", res.Len(), rows)
	}
	idIdx, ok := res.Schema.Lookup("id")
	if !ok {
		t.Fatalf("result lacks id column: %s", res.Schema)
	}
	predIdx := make([]int, outDim)
	if outDim == 1 {
		p, ok := res.Schema.Lookup("prediction")
		if !ok {
			t.Fatalf("result lacks prediction column: %s", res.Schema)
		}
		predIdx[0] = p
	} else {
		for k := 0; k < outDim; k++ {
			p, ok := res.Schema.Lookup("prediction_" + itoa(k))
			if !ok {
				t.Fatalf("result lacks prediction_%d column: %s", k, res.Schema)
			}
			predIdx[k] = p
		}
	}
	seen := make([]bool, rows)
	for r := 0; r < res.Len(); r++ {
		id := int(res.Vecs[idIdx].Int64s()[r])
		if seen[id] {
			t.Fatalf("duplicate prediction for id %d", id)
		}
		seen[id] = true
		for k := 0; k < outDim; k++ {
			got := res.Vecs[predIdx[k]].Float32s()[r]
			want := ref[id][k]
			if math.Abs(float64(got-want)) > tol+tol*math.Abs(float64(want)) {
				t.Fatalf("id %d output %d: got %v, want %v", id, k, got, want)
			}
		}
	}
}

func TestMLToSQLMultiOutput(t *testing.T) {
	d := db.Open(db.Options{})
	const rows, inDim, outDim = 300, 4, 3
	data := makeFactTable(t, d, "fact", rows, inDim, 2, 5)
	model := nn.NewDenseModel("m3", inDim, 6, 1, outDim, 7)
	ref := model.PredictBatch(data)
	if _, err := d.RegisterModel(model, relmodel.ExportOptions{}); err != nil {
		t.Fatal(err)
	}
	meta, _ := d.ModelMeta("m3")
	gen, err := mltosql.New(meta, mltosql.Options{
		FactTable: "fact", ModelTable: "m3",
		InputColumns: featNames(inDim), LayerFilter: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	q, err := gen.Generate()
	if err != nil {
		t.Fatal(err)
	}
	res, err := d.Query(q)
	if err != nil {
		t.Fatalf("%v\n%s", err, q)
	}
	checkPredictions(t, res, ref, rows, outDim)
}

func TestMLToSQLLSTMEquivalence(t *testing.T) {
	for _, layout := range []relmodel.Layout{relmodel.LayoutPairs, relmodel.LayoutNodeID} {
		for _, native := range []bool{false, true} {
			d := db.Open(db.Options{Parallelism: 4})
			const rows, steps, width = 400, 3, 6
			data := makeFactTable(t, d, "series", rows, steps, 3, 11)
			model := nn.NewLSTMModel("lm", steps, width, 123)
			ref := model.PredictBatch(data)
			if _, err := d.RegisterModel(model, relmodel.ExportOptions{Layout: layout, Partitions: 2}); err != nil {
				t.Fatal(err)
			}
			meta, _ := d.ModelMeta("lm")
			gen, err := mltosql.New(meta, mltosql.Options{
				FactTable: "series", ModelTable: "lm",
				InputColumns:    featNames(steps),
				NativeFunctions: native, LayerFilter: true,
			})
			if err != nil {
				t.Fatal(err)
			}
			q, err := gen.Generate()
			if err != nil {
				t.Fatal(err)
			}
			res, err := d.Query(q)
			if err != nil {
				t.Fatalf("layout=%v native=%v: %v\n%s", layout, native, err, q)
			}
			checkPredictions(t, res, ref, rows, 1)
		}
	}
}

// TestModelJoinOperatorEquivalence checks the native operator (Sec. 5) on
// both devices against the reference forward pass, via the MODEL JOIN SQL
// extension.
func TestModelJoinOperatorEquivalence(t *testing.T) {
	for _, layout := range []relmodel.Layout{relmodel.LayoutPairs, relmodel.LayoutNodeID} {
		for _, dev := range []string{"cpu", "gpu"} {
			d := db.Open(db.Options{Parallelism: 4})
			const rows, inDim = 900, 4
			data := makeFactTable(t, d, "fact", rows, inDim, 3, 21)
			model := nn.NewDenseModel("mj", inDim, 16, 3, 2, 77)
			ref := model.PredictBatch(data)
			if _, err := d.RegisterModel(model, relmodel.ExportOptions{Layout: layout, Partitions: 4}); err != nil {
				t.Fatal(err)
			}
			q := "SELECT id, prediction_0, prediction_1 FROM fact MODEL JOIN mj USING DEVICE '" + dev + "'"
			res, err := d.Query(q)
			if err != nil {
				t.Fatalf("layout=%v dev=%s: %v", layout, dev, err)
			}
			checkPredictions(t, res, ref, rows, 2)
		}
	}
}

func TestModelJoinLSTM(t *testing.T) {
	for _, dev := range []string{"cpu", "gpu"} {
		d := db.Open(db.Options{Parallelism: 4})
		const rows, steps, width = 500, 3, 8
		data := makeFactTable(t, d, "series", rows, steps, 3, 31)
		model := nn.NewLSTMModel("lmj", steps, width, 3)
		ref := model.PredictBatch(data)
		if _, err := d.RegisterModel(model, relmodel.ExportOptions{Partitions: 3}); err != nil {
			t.Fatal(err)
		}
		res, err := d.Query("SELECT id, prediction FROM series MODEL JOIN lmj USING DEVICE '" + dev + "'")
		if err != nil {
			t.Fatalf("dev=%s: %v", dev, err)
		}
		checkPredictions(t, res, ref, rows, 1)
	}
}

// TestModelJoinInQueryPipeline nests inference into a larger query
// (aggregation over predictions) — the composability claim of Sec. 5.1.
func TestModelJoinInQueryPipeline(t *testing.T) {
	d := db.Open(db.Options{})
	const rows, inDim = 600, 4
	data := makeFactTable(t, d, "fact", rows, inDim, 2, 41)
	model := nn.NewDenseModel("mp", inDim, 8, 1, 1, 5)
	ref := model.PredictBatch(data)
	if _, err := d.RegisterModel(model, relmodel.ExportOptions{}); err != nil {
		t.Fatal(err)
	}
	res, err := d.Query("SELECT COUNT(*) AS n, AVG(prediction) AS avgp FROM fact MODEL JOIN mp WHERE prediction > 0")
	if err != nil {
		t.Fatal(err)
	}
	wantN, wantSum := 0, 0.0
	for _, r := range ref {
		if r[0] > 0 {
			wantN++
			wantSum += float64(r[0])
		}
	}
	if got := res.Vecs[0].Int64s()[0]; got != int64(wantN) {
		t.Errorf("count = %d, want %d", got, wantN)
	}
	gotAvg := res.Vecs[1].Float64s()[0]
	if math.Abs(gotAvg-wantSum/float64(wantN)) > 1e-3 {
		t.Errorf("avg = %v, want %v", gotAvg, wantSum/float64(wantN))
	}
}

func TestExplainShowsOptimizations(t *testing.T) {
	d := db.Open(db.Options{})
	makeFactTable(t, d, "fact", 100, 4, 3, 51)
	model := nn.NewDenseModel("me", 4, 8, 1, 1, 5)
	if _, err := d.RegisterModel(model, relmodel.ExportOptions{}); err != nil {
		t.Fatal(err)
	}
	meta, _ := d.ModelMeta("me")
	gen, err := mltosql.New(meta, mltosql.Options{FactTable: "fact", ModelTable: "me", InputColumns: featNames(4), LayerFilter: true})
	if err != nil {
		t.Fatal(err)
	}
	q, _ := gen.Generate()
	txt, err := d.Explain(q)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"SegmentedAggregate", "Exchange", "zone-map"} {
		if !contains(txt, want) {
			t.Errorf("EXPLAIN lacks %q:\n%s", want, txt)
		}
	}
}

func contains(s, sub string) bool {
	return len(s) >= len(sub) && (s == sub || len(sub) == 0 || indexOf(s, sub) >= 0)
}

func indexOf(s, sub string) int {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return i
		}
	}
	return -1
}

// TestNullKeysJoinAndGroup pins SQL's two NULL rules on keys: an equi-join
// never matches a NULL key — the join agrees with the same predicate
// evaluated by a filter — while GROUP BY collects NULLs into one group. The
// integer that used to stand in for NULL is an ordinary key.
func TestNullKeysJoinAndGroup(t *testing.T) {
	d := db.Open(db.Options{})
	for _, stmt := range []string{
		"CREATE TABLE a (k BIGINT, s VARCHAR)",
		"CREATE TABLE b (k BIGINT, s VARCHAR)",
		"INSERT INTO a VALUES (1, 'x'), (NULL, 'y'), (-9223372036854775807, NULL), (NULL, NULL)",
		"INSERT INTO b VALUES (1, 'x'), (NULL, 'y'), (-9223372036854775807, NULL)",
	} {
		if err := d.Exec(stmt); err != nil {
			t.Fatalf("%s: %v", stmt, err)
		}
	}
	count := func(q string) int64 {
		t.Helper()
		res, err := d.Query(q)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		return res.Vecs[0].Int64s()[0]
	}
	// Fixed-width key, string key, and both together.
	for q, want := range map[string]int64{
		"SELECT COUNT(*) AS n FROM a, b WHERE a.k = b.k":               2,
		"SELECT COUNT(*) AS n FROM a, b WHERE a.s = b.s":               2,
		"SELECT COUNT(*) AS n FROM a, b WHERE a.k = b.k AND a.s = b.s": 1,
		// The same predicate where the planner cannot make it a join key.
		"SELECT COUNT(*) AS n FROM a, b WHERE a.k = b.k OR a.k = b.k": 2,
	} {
		if got := count(q); got != want {
			t.Errorf("%s = %d, want %d", q, got, want)
		}
	}
	res, err := d.Query("SELECT k, COUNT(*) AS n FROM a GROUP BY k ORDER BY k")
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 3 || !res.Vecs[0].NullAt(0) || res.Vecs[1].Int64s()[0] != 2 {
		t.Errorf("GROUP BY k: NULLs not collected into one group of 2:\n%s", res)
	}
	res, err = d.Query("SELECT s, k, COUNT(*) AS n FROM a GROUP BY s, k")
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 4 {
		t.Errorf("GROUP BY s, k made %d groups, want 4:\n%s", res.Len(), res)
	}
}

func TestIsNullAndIn(t *testing.T) {
	d := db.Open(db.Options{})
	if err := d.Exec("CREATE TABLE t (id BIGINT, v DOUBLE)"); err != nil {
		t.Fatal(err)
	}
	if err := d.Exec("INSERT INTO t VALUES (1, 1.0), (2, NULL), (3, 3.0), (4, 4.0)"); err != nil {
		t.Fatal(err)
	}
	res, err := d.Query("SELECT id FROM t WHERE v IS NULL")
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 1 || res.Vecs[0].Int64s()[0] != 2 {
		t.Errorf("IS NULL wrong: %s", res)
	}
	res, err = d.Query("SELECT COUNT(*) AS n FROM t WHERE v IS NOT NULL")
	if err != nil {
		t.Fatal(err)
	}
	if res.Vecs[0].Int64s()[0] != 3 {
		t.Errorf("IS NOT NULL wrong: %s", res)
	}
	res, err = d.Query("SELECT id FROM t WHERE id IN (1, 4, 99) ORDER BY id")
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 2 || res.Vecs[0].Int64s()[1] != 4 {
		t.Errorf("IN wrong: %s", res)
	}
	res, err = d.Query("SELECT COUNT(*) AS n FROM t WHERE id NOT IN (1, 2)")
	if err != nil {
		t.Fatal(err)
	}
	if res.Vecs[0].Int64s()[0] != 2 {
		t.Errorf("NOT IN wrong: %s", res)
	}
}

func TestInsertExpressionsAndColumnList(t *testing.T) {
	d := db.Open(db.Options{})
	if err := d.Exec("CREATE TABLE t (id BIGINT, v DOUBLE, s VARCHAR)"); err != nil {
		t.Fatal(err)
	}
	// Expressions in VALUES, explicit column subset (s stays NULL).
	if err := d.Exec("INSERT INTO t (id, v) VALUES (1 + 1, 3.0 * 0.5)"); err != nil {
		t.Fatal(err)
	}
	res, err := d.Query("SELECT id, v, s FROM t")
	if err != nil {
		t.Fatal(err)
	}
	if res.Vecs[0].Int64s()[0] != 2 || res.Vecs[1].Float64s()[0] != 1.5 || !res.Vecs[2].NullAt(0) {
		t.Errorf("insert expressions wrong: %s", res)
	}
	if err := d.Exec("INSERT INTO t VALUES (1, 2.0)"); err == nil {
		t.Error("arity mismatch should fail")
	}
	if err := d.Exec("INSERT INTO t (id, nope) VALUES (1, 2)"); err == nil {
		t.Error("unknown column should fail")
	}
}
