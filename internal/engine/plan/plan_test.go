package plan

import (
	"context"
	"math"
	"slices"
	"sort"
	"strings"
	"testing"

	"indbml/internal/core/relmodel"
	"indbml/internal/engine/exec"
	"indbml/internal/engine/expr"
	"indbml/internal/engine/sql"
	"indbml/internal/engine/storage"
	"indbml/internal/engine/types"
	"indbml/internal/engine/vector"
	"indbml/internal/trace"
)

// testCatalog is a minimal Catalog for planner tests (no model support).
type testCatalog struct {
	tables map[string]*storage.Table
}

func (c *testCatalog) Table(name string) (*storage.Table, error) {
	t, ok := c.tables[strings.ToLower(name)]
	if !ok {
		return nil, errNoTable(name)
	}
	return t, nil
}

type errNoTable string

func (e errNoTable) Error() string { return "no table " + string(e) }

func (c *testCatalog) Model(name string) (*relmodel.Meta, error) { return nil, errNoTable(name) }

func (c *testCatalog) NewModelJoin(string, exec.Operator, []int, string) (exec.Operator, error) {
	return nil, errNoTable("modeljoin")
}

func newFact(t *testing.T, name string, rows, parts int, unique bool) *storage.Table {
	t.Helper()
	schema := types.NewSchema(
		types.Column{Name: "id", Type: types.Int64},
		types.Column{Name: "grp", Type: types.Int32},
		types.Column{Name: "v", Type: types.Float32},
	)
	tbl := storage.NewTable(name, schema, storage.Options{Partitions: parts})
	if unique {
		tbl.SetSortedBy(0)
		tbl.SetUniqueKey(0)
	}
	b := vector.NewBatch(schema, rows)
	for i := 0; i < rows; i++ {
		_ = b.AppendRow(types.Int64Datum(int64(i)), types.Int32Datum(int32(i%5)), types.Float32Datum(float32(i)))
	}
	if err := tbl.Append(b); err != nil {
		t.Fatal(err)
	}
	return tbl
}

func planFor(t *testing.T, pl *Planner, query string) *Plan {
	t.Helper()
	sel, err := sql.ParseSelect(query)
	if err != nil {
		t.Fatal(err)
	}
	p, err := pl.PlanSelect(sel)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func runPlan(t *testing.T, p *Plan) *vector.Batch {
	t.Helper()
	op, err := p.Build(context.Background(), trace.NewQueryTrace(""))
	if err != nil {
		t.Fatal(err)
	}
	out, err := exec.Collect(op)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func TestDriverPrefersUniqueKeyedTable(t *testing.T) {
	// The model-like table is larger, but the fact table declares a unique
	// key: the fact table must drive parallelism (the bug behind large
	// dense models de-parallelizing ML-To-SQL).
	fact := newFact(t, "fact", 100, 4, true)
	big := newFact(t, "weights", 10_000, 4, false)
	pl := &Planner{Cat: &testCatalog{tables: map[string]*storage.Table{"fact": fact, "weights": big}}}
	p := planFor(t, pl, "SELECT f.id, SUM(w.v) AS s FROM fact AS f, weights AS w WHERE f.grp = w.grp GROUP BY f.id")
	if !p.Parallel() {
		t.Fatalf("plan should parallelize over the fact table:\n%s", p.Explain())
	}
	if !strings.Contains(p.Explain(), "partitions of fact") {
		t.Errorf("driver is not the fact table:\n%s", p.Explain())
	}
}

func TestSegmentedAggregateChosenOnClusteredStream(t *testing.T) {
	fact := newFact(t, "fact", 1000, 4, true)
	pl := &Planner{Cat: &testCatalog{tables: map[string]*storage.Table{"fact": fact}}}
	p := planFor(t, pl, "SELECT id, SUM(v) AS s FROM fact GROUP BY id, grp")
	if !strings.Contains(p.Explain(), "SegmentedAggregate") {
		t.Errorf("expected pipelined aggregation:\n%s", p.Explain())
	}
	// Ablation flag forces hash aggregation.
	pl.DisableSegmentedAgg = true
	p = planFor(t, pl, "SELECT id, SUM(v) AS s FROM fact GROUP BY id, grp")
	if strings.Contains(p.Explain(), "SegmentedAggregate") {
		t.Errorf("ablation flag ignored:\n%s", p.Explain())
	}
}

func TestHashAggregateOnUnclusteredGroup(t *testing.T) {
	fact := newFact(t, "fact", 1000, 4, true)
	pl := &Planner{Cat: &testCatalog{tables: map[string]*storage.Table{"fact": fact}}}
	p := planFor(t, pl, "SELECT grp, SUM(v) AS s FROM fact GROUP BY grp")
	if strings.Contains(p.Explain(), "SegmentedAggregate") {
		t.Errorf("grouping by a non-clustered column must not use segmented agg:\n%s", p.Explain())
	}
	if p.Parallel() {
		t.Errorf("grouping by a non-aligned column must not parallelize:\n%s", p.Explain())
	}
	out := runPlan(t, p)
	if out.Len() != 5 {
		t.Fatalf("got %d groups", out.Len())
	}
}

// TestGroupByFloatClusteringWithNaN: Sort and SORTED BY order floats by
// Datum.Compare, which finds NaN equal to every number, so a DOUBLE stream
// in that order may hold 1, NaN, 1. Grouping on it must still give one
// group per value, so such a column never drives a segmented aggregate.
func TestGroupByFloatClusteringWithNaN(t *testing.T) {
	schema := types.NewSchema(types.Column{Name: "x", Type: types.Float64})
	load := func(sorted bool) *storage.Table {
		tbl := storage.NewTable("t", schema, storage.Options{Partitions: 1})
		if sorted {
			tbl.SetSortedBy(0)
		}
		b := vector.NewBatch(schema, 3)
		for _, x := range []float64{1, math.NaN(), 1} {
			_ = b.AppendRow(types.Float64Datum(x))
		}
		if err := tbl.Append(b); err != nil {
			t.Fatal(err)
		}
		return tbl
	}
	for _, c := range []struct {
		query  string
		sorted bool
	}{
		{"SELECT x, COUNT(*) AS n FROM (SELECT x FROM t ORDER BY x) AS s GROUP BY x", false},
		{"SELECT x, COUNT(*) AS n FROM t GROUP BY x", true},
	} {
		pl := &Planner{Cat: &testCatalog{tables: map[string]*storage.Table{"t": load(c.sorted)}}}
		p := planFor(t, pl, c.query)
		out := runPlan(t, p)
		var got []string
		for r := 0; r < out.Len(); r++ {
			got = append(got, out.Vecs[0].Datum(r).String()+"="+out.Vecs[1].Datum(r).String())
		}
		sort.Strings(got)
		if want := []string{"1=2", "NaN=1"}; !slices.Equal(got, want) {
			t.Errorf("%s (sorted table %v): groups %v, want %v\n%s", c.query, c.sorted, got, want, p.Explain())
		}
	}
}

func TestEquiPredicateBecomesJoinKey(t *testing.T) {
	fact := newFact(t, "fact", 100, 1, true)
	dim := newFact(t, "dim", 5, 1, false)
	pl := &Planner{Cat: &testCatalog{tables: map[string]*storage.Table{"fact": fact, "dim": dim}}}
	p := planFor(t, pl, "SELECT f.id FROM fact AS f, dim AS d WHERE f.grp = d.grp AND d.v > 1")
	ex := p.Explain()
	if !strings.Contains(ex, "HashJoin (grp = grp)") {
		t.Errorf("equality not turned into a join key:\n%s", ex)
	}
	if !strings.Contains(ex, "Filter (v > 1") && !strings.Contains(ex, "Filter ((v >") {
		t.Errorf("one-sided predicate not pushed down:\n%s", ex)
	}
	if strings.Contains(ex, "CrossJoin") {
		t.Errorf("cross join not upgraded:\n%s", ex)
	}
}

func TestZoneFiltersAttachedToScan(t *testing.T) {
	fact := newFact(t, "fact", 100, 1, true)
	pl := &Planner{Cat: &testCatalog{tables: map[string]*storage.Table{"fact": fact}}}
	p := planFor(t, pl, "SELECT id FROM fact WHERE id BETWEEN 10 AND 20")
	if !strings.Contains(p.Explain(), "zone-map filters") {
		t.Errorf("zone filters missing:\n%s", p.Explain())
	}
	pl.DisableZoneMaps = true
	p = planFor(t, pl, "SELECT id FROM fact WHERE id BETWEEN 10 AND 20")
	if strings.Contains(p.Explain(), "zone-map filters") {
		t.Errorf("zone-map ablation flag ignored:\n%s", p.Explain())
	}
}

func TestSelfJoinOnUniqueKeyParallelizes(t *testing.T) {
	fact := newFact(t, "fact", 200, 4, true)
	pl := &Planner{Cat: &testCatalog{tables: map[string]*storage.Table{"fact": fact}}}
	p := planFor(t, pl, "SELECT a.id FROM fact AS a, fact AS b WHERE a.id = b.id")
	if !p.Parallel() {
		t.Errorf("self-join on the unique key should parallelize:\n%s", p.Explain())
	}
	out := runPlan(t, p)
	if out.Len() != 200 {
		t.Fatalf("self-join on id returned %d rows, want 200", out.Len())
	}
}

func TestSelfJoinOnShiftedKeyStaysSerialAndCorrect(t *testing.T) {
	fact := newFact(t, "fact", 200, 4, true)
	pl := &Planner{Cat: &testCatalog{tables: map[string]*storage.Table{"fact": fact}}}
	p := planFor(t, pl, "SELECT a.id FROM fact AS a, fact AS b WHERE b.id = a.id + 1")
	if p.Parallel() {
		t.Errorf("shifted self-join must not partition both scans:\n%s", p.Explain())
	}
	out := runPlan(t, p)
	if out.Len() != 199 {
		t.Fatalf("shifted self-join returned %d rows, want 199", out.Len())
	}
}

func TestParallelMatchesSerialResults(t *testing.T) {
	fact := newFact(t, "fact", 5000, 6, true)
	cat := &testCatalog{tables: map[string]*storage.Table{"fact": fact}}
	q := "SELECT id, SUM(v) AS s, COUNT(*) AS c FROM fact GROUP BY id, grp"

	par := runPlan(t, planFor(t, &Planner{Cat: cat}, q))
	ser := runPlan(t, planFor(t, &Planner{Cat: cat, DisableParallel: true}, q))
	if par.Len() != ser.Len() || par.Len() != 5000 {
		t.Fatalf("parallel %d vs serial %d rows", par.Len(), ser.Len())
	}
	sums := map[int64]float64{}
	for r := 0; r < ser.Len(); r++ {
		sums[ser.Vecs[0].Int64s()[r]] = float64(ser.Vecs[1].Float32s()[r])
	}
	for r := 0; r < par.Len(); r++ {
		if float64(par.Vecs[1].Float32s()[r]) != sums[par.Vecs[0].Int64s()[r]] {
			t.Fatalf("parallel result diverges at id %d", par.Vecs[0].Int64s()[r])
		}
	}
}

func TestOrderByLimitGlobalUnderParallel(t *testing.T) {
	fact := newFact(t, "fact", 3000, 4, true)
	pl := &Planner{Cat: &testCatalog{tables: map[string]*storage.Table{"fact": fact}}}
	p := planFor(t, pl, "SELECT id FROM fact ORDER BY id DESC LIMIT 5")
	if !p.Parallel() {
		t.Fatalf("expected parallel scan:\n%s", p.Explain())
	}
	out := runPlan(t, p)
	if out.Len() != 5 {
		t.Fatalf("limit returned %d rows", out.Len())
	}
	for i, want := range []int64{2999, 2998, 2997, 2996, 2995} {
		if out.Vecs[0].Int64s()[i] != want {
			t.Fatalf("global order wrong: %v", out.Vecs[0].Int64s())
		}
	}
}

func TestOrderByHiddenColumnTrimmed(t *testing.T) {
	fact := newFact(t, "fact", 50, 1, true)
	pl := &Planner{Cat: &testCatalog{tables: map[string]*storage.Table{"fact": fact}}}
	p := planFor(t, pl, "SELECT grp FROM fact ORDER BY v DESC LIMIT 3")
	out := runPlan(t, p)
	if out.Schema.Len() != 1 || out.Schema.Col(0).Name != "grp" {
		t.Fatalf("hidden sort column leaked: %s", out.Schema)
	}
	if out.Vecs[0].Int32s()[0] != 49%5 {
		t.Errorf("order wrong: %v", out.Vecs[0].Int32s())
	}
}

func TestExplainRendersTree(t *testing.T) {
	fact := newFact(t, "fact", 10, 2, true)
	pl := &Planner{Cat: &testCatalog{tables: map[string]*storage.Table{"fact": fact}}}
	p := planFor(t, pl, "SELECT id FROM fact WHERE v > 1 ORDER BY id LIMIT 2")
	ex := p.Explain()
	for _, want := range []string{"Limit 2", "Sort", "Exchange", "Filter", "Scan fact"} {
		if !strings.Contains(ex, want) {
			t.Errorf("explain lacks %q:\n%s", want, ex)
		}
	}
}

func TestBindConstExpr(t *testing.T) {
	pl := &Planner{}
	e, err := pl.BindConstExpr(&sql.BinExpr{Op: "+", L: &sql.NumberLit{Text: "2"}, R: &sql.NumberLit{Text: "3"}})
	if err != nil {
		t.Fatal(err)
	}
	oneRow := vector.NewBatch(types.NewSchema(), 1)
	oneRow.SetLen(1)
	ev := expr.NewEvaluator(e)
	v, err := ev.Eval(oneRow)
	if err != nil || v.Int32s()[0] != 5 {
		t.Errorf("const eval = %v, %v", v, err)
	}
	if _, err := pl.BindConstExpr(&sql.Ident{Name: "x"}); err == nil {
		t.Error("column ref in const context should fail")
	}
}
