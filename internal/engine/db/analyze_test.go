package db_test

import (
	"context"
	"strings"
	"sync"
	"testing"

	"indbml/internal/core/mltosql"
	"indbml/internal/core/relmodel"
	"indbml/internal/engine/db"
	"indbml/internal/engine/exec"
	"indbml/internal/engine/sql"
	"indbml/internal/engine/vector"
	"indbml/internal/nn"
	"indbml/internal/trace"
	"indbml/internal/workload"
)

// newAnalyzeDB builds a partitioned fact table and a registered model, so
// traced queries exercise the parallel (Exchange) path where partition
// instances share spans.
func newAnalyzeDB(t *testing.T) (*db.Database, int) {
	t.Helper()
	const rows = 600
	d := db.Open(db.Options{DefaultPartitions: 4, Parallelism: 4})
	makeFactTable(t, d, "fact", rows, 4, 4, 17)
	model := nn.NewDenseModel("am", 4, 8, 2, 1, 29)
	if _, err := d.RegisterModel(model, relmodel.ExportOptions{Partitions: 2}); err != nil {
		t.Fatal(err)
	}
	return d, rows
}

const analyzeQuery = "SELECT id, prediction FROM fact MODEL JOIN am"

// queryAnalyze runs a SELECT and returns its rows with its trace, which
// closing the operator tree has finished.
func queryAnalyze(d *db.Database, q string) (*vector.Batch, *trace.QueryTrace, error) {
	op, qt, err := d.QueryOpTracedContext(context.Background(), q)
	if err != nil {
		return nil, nil, err
	}
	res, err := exec.Collect(op)
	return res, qt, err
}

// TestExplainAnalyzeMatchesQuery is the acceptance-criterion e2e test: the
// row count EXPLAIN ANALYZE reports at the plan root must equal the row
// count the plain SELECT returns, and the ModelJoin span must expose the
// cache verdict, the build-vs-inference split, and Sgemm accounting.
func TestExplainAnalyzeMatchesQuery(t *testing.T) {
	d, rows := newAnalyzeDB(t)

	res, err := d.Query(analyzeQuery)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != rows {
		t.Fatalf("SELECT returned %d rows, want %d", res.Len(), rows)
	}

	// Second run via the traced path: the artifact cache now holds the
	// model, so the span must label it a hit with build time zero.
	out, qt, err := queryAnalyze(d, analyzeQuery)
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != rows {
		t.Fatalf("traced SELECT returned %d rows, want %d", out.Len(), rows)
	}
	if qt.Root == nil {
		t.Fatal("QueryTrace has no root span")
	}
	if got := qt.Root.Rows(); got != int64(rows) {
		t.Errorf("root span reports %d rows, want %d", got, rows)
	}
	if qt.Total() <= 0 {
		t.Error("statement total not recorded")
	}

	mj := modelJoinSpan(t, qt)
	if mj.Rows() != int64(rows) {
		t.Errorf("ModelJoin span reports %d rows, want %d", mj.Rows(), rows)
	}
	if got := mj.Label("cache"); got != "hit" {
		t.Errorf("ModelJoin cache label = %q, want hit", got)
	}
	if v := mj.Counter("build_ns").Load(); v != 0 {
		t.Errorf("cache hit reports build_ns=%d, want 0", v)
	}
	if v := mj.Counter("infer_ns").Load(); v <= 0 {
		t.Error("ModelJoin span has no inference time")
	}
	if v := mj.Counter("sgemm_flops").Load(); v <= 0 {
		t.Error("ModelJoin span has no Sgemm FLOPs")
	}
	if v := mj.Counter("sgemm_busy_ns").Load(); v <= 0 {
		t.Error("ModelJoin span has no gemm worker busy time")
	}
	if v := mj.Counter("pack_ns").Load(); v != 0 {
		t.Errorf("cache hit reports pack_ns=%d, want 0: a hit packs nothing", v)
	}
	// The per-operator busy time must reconcile with the statement total:
	// the root physical operator is traced once, so its inclusive wall time
	// cannot exceed the total.
	if qt.Root.Wall() > qt.Total() {
		t.Errorf("root span wall %s exceeds statement total %s", qt.Root.Wall(), qt.Total())
	}

	rendered := qt.Render()
	for _, want := range []string{"ModelJoin", "rows=", "cache=hit", "build=", "infer=", "sgemm=", "sgemm_busy=", "pack=0ns", "Total:"} {
		if !strings.Contains(rendered, want) {
			t.Errorf("EXPLAIN ANALYZE output missing %q:\n%s", want, rendered)
		}
	}
}

// modelJoinSpan finds the ModelJoin operator's span in a statement trace.
func modelJoinSpan(t *testing.T, qt *trace.QueryTrace) *trace.Span {
	t.Helper()
	var mj *trace.Span
	var visit func(s *trace.Span)
	visit = func(s *trace.Span) {
		if strings.HasPrefix(s.Name, "ModelJoin") {
			mj = s
		}
		for _, c := range s.Children {
			visit(c)
		}
	}
	visit(qt.Root)
	if mj == nil {
		t.Fatalf("no ModelJoin span in trace:\n%s", qt.Render())
	}
	return mj
}

// TestExplainAnalyzeColdBuild checks the miss side of the verdict: the
// first query against a fresh database pays the build phase — weight packing
// included — and reports it.
func TestExplainAnalyzeColdBuild(t *testing.T) {
	d, rows := newAnalyzeDB(t)
	_, qt, err := queryAnalyze(d, analyzeQuery)
	if err != nil {
		t.Fatal(err)
	}
	out := qt.Render()
	for _, want := range []string{"cache=miss", "build=", "pack=", "rows=" + itoa(rows)} {
		if !strings.Contains(out, want) {
			t.Errorf("cold EXPLAIN ANALYZE missing %q:\n%s", want, out)
		}
	}
	mj := modelJoinSpan(t, qt)
	build, pack := mj.Counter("build_ns").Load(), mj.Counter("pack_ns").Load()
	if pack <= 0 || pack > build {
		t.Errorf("cold build reports pack_ns=%d of build_ns=%d, want 0 < pack <= build", pack, build)
	}
}

// TestExplainAnalyzeStatement checks the SQL route: EXPLAIN [ANALYZE] reads
// as an ExplainStmt however it is spaced, cased or commented, and the
// engine's statement entry runs it — EXPLAIN ANALYZE executes the SELECT
// and is recorded as the statement it is, EXPLAIN only plans.
func TestExplainAnalyzeStatement(t *testing.T) {
	d, _ := newAnalyzeDB(t)
	const q = "SELECT id, prediction FROM fact MODEL JOIN am ORDER BY id LIMIT 10"
	for _, text := range []string{
		"EXPLAIN ANALYZE " + q,
		"EXPLAIN  ANALYZE " + q,
		"explain\nanalyze " + strings.ToLower(q),
		"-- c\nEXPLAIN ANALYZE " + q,
	} {
		p := sql.ParseNormalized(text, false)
		if ex, ok := p.Stmt.(*sql.ExplainStmt); !ok || !ex.Analyze {
			t.Fatalf("%q parses to %T (%v), want EXPLAIN ANALYZE", text, p.Stmt, p.Err)
		}
		res, err := d.Run(context.Background(), p, nil)
		if err != nil {
			t.Fatalf("%q: %v", text, err)
		}
		if !strings.Contains(res.Text, "TopN") || !strings.Contains(res.Text, "rows=10") || !strings.Contains(res.Text, "Total: ") {
			t.Errorf("EXPLAIN ANALYZE of TopN query %q:\n%s", text, res.Text)
		}
		sums := d.FlightRecorder().Snapshot()
		last := sums[len(sums)-1]
		if last.SQL != text || last.Fingerprint != p.Fingerprint || last.Kind != "select" || last.Approach != "modeljoin" || last.RowsOut != 10 {
			t.Errorf("%q recorded as %q fp %x kind %s approach %s rows_out %d, want the statement, fp %x, select, modeljoin, 10",
				text, last.SQL, last.Fingerprint, last.Kind, last.Approach, last.RowsOut, p.Fingerprint)
		}
	}

	recorded := d.FlightRecorder().Recorded()
	for _, text := range []string{"EXPLAIN " + q, "-- c\nexplain " + q} {
		res, err := d.Run(context.Background(), sql.ParseNormalized(text, false), nil)
		if err != nil {
			t.Fatalf("%q: %v", text, err)
		}
		if !strings.Contains(res.Text, "ModelJoin am") || strings.Contains(res.Text, "rows=") || res.Op != nil {
			t.Errorf("EXPLAIN %q ran or did not plan:\n%s", text, res.Text)
		}
		if plan, err := d.Explain(q); err != nil || plan != res.Text {
			t.Errorf("Explain(%q) = %q, %v; the statement rendered %q", q, plan, err, res.Text)
		}
	}
	if got := d.FlightRecorder().Recorded(); got != recorded {
		t.Errorf("EXPLAIN published %d flight records, want none", got-recorded)
	}
}

// TestExplainAnalyzeShowsKeyPath runs EXPLAIN ANALYZE of the ML-To-SQL query
// of a dense 32x2 model over 800 Iris tuples in four partitions: its three
// groupjoins and the id join index their dense integer keys directly, and
// say keys=direct. The same query with every join key multiplied by a large
// odd stride on both sides probes hash tables on all four, and says
// keys=hash. The key-less cross join says neither.
func TestExplainAnalyzeShowsKeyPath(t *testing.T) {
	fact, _ := workload.IrisTable("fact", 800, 4)
	model := workload.DenseModel(32, 2)
	d := db.Open(db.Options{DefaultPartitions: 4, Parallelism: 2})
	d.RegisterTable(fact)
	meta, err := d.RegisterModel(model, relmodel.ExportOptions{Partitions: 4})
	if err != nil {
		t.Fatal(err)
	}
	gen, err := mltosql.New(meta, mltosql.Options{FactTable: "fact", ModelTable: model.Name, IDColumn: "id",
		InputColumns: workload.IrisFeatureNames, LayerFilter: true, NativeFunctions: true})
	if err != nil {
		t.Fatal(err)
	}
	q, err := gen.Generate()
	if err != nil {
		t.Fatal(err)
	}
	strided := strings.NewReplacer(
		"input.node = model.node_in AND input.layer = model.layer_in",
		"input.node * 1000003 = model.node_in * 1000003 AND input.layer * 1000003 = model.layer_in * 1000003",
		"data.id = r.id", "data.id * 1000003 = r.id * 1000003").Replace(q)
	for _, c := range []struct{ q, path, other string }{{q, "keys=direct", "keys=hash"}, {strided, "keys=hash", "keys=direct"}} {
		res, err := d.Run(context.Background(), sql.ParseNormalized("EXPLAIN ANALYZE "+c.q, false), nil)
		if err != nil {
			t.Fatal(err)
		}
		if strings.Count(res.Text, c.path) != 4 || strings.Contains(res.Text, c.other) {
			t.Errorf("EXPLAIN ANALYZE shows %d joins with %s and %d with %s, want 4 and none:\n%s",
				strings.Count(res.Text, c.path), c.path, strings.Count(res.Text, c.other), c.other, res.Text)
		}
		for _, line := range strings.Split(res.Text, "\n") {
			if strings.Contains(line, "CrossJoin") && strings.Contains(line, "keys=") {
				t.Errorf("the cross join has a key path: %s", line)
			}
		}
	}
}

// TestTracedQueriesConcurrentWithDML races traced MODEL JOIN queries
// against DML on the model table; under -race this checks that shared
// spans (one per logical node, mutated by all partition instances) and the
// cache-verdict plumbing are clean.
func TestTracedQueriesConcurrentWithDML(t *testing.T) {
	d, rows := newAnalyzeDB(t)

	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				out, qt, err := queryAnalyze(d, analyzeQuery)
				if err != nil {
					t.Error(err)
					return
				}
				if out.Len() != rows {
					t.Errorf("traced query returned %d rows, want %d", out.Len(), rows)
					return
				}
				if qt.Root.Rows() != int64(rows) {
					t.Errorf("root span rows %d, want %d", qt.Root.Rows(), rows)
					return
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 10; i++ {
			if err := d.Exec("INSERT INTO am (layer_in, node_in, layer, node) VALUES (0, 0, 0, 0)"); err != nil {
				t.Error(err)
				return
			}
			if err := d.Exec("DELETE FROM am WHERE layer = 0 AND node_in = 0 AND node = 0"); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Wait()
}
