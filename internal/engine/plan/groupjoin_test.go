package plan

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	"indbml/internal/core/mltosql"
	"indbml/internal/core/relmodel"
	"indbml/internal/engine/exec"
	"indbml/internal/engine/storage"
	"indbml/internal/engine/types"
	"indbml/internal/engine/vector"
	"indbml/internal/nn"
	"indbml/internal/trace"
)

// bitsRows renders a result as sorted row strings with every float as its
// bits: partition-parallel plans emit partitions in any order, and the
// groupjoin must reproduce the unfused plan's results exactly.
func bitsRows(b *vector.Batch) []string {
	rows := make([]string, b.Len())
	for r := range rows {
		parts := make([]string, len(b.Vecs))
		for c, v := range b.Vecs {
			switch {
			case v.NullAt(r):
				parts[c] = "NULL"
			case v.Type() == types.Float32:
				parts[c] = fmt.Sprintf("%#x", math.Float32bits(v.Float32s()[r]))
			case v.Type() == types.Float64:
				parts[c] = fmt.Sprintf("%#x", math.Float64bits(v.Float64s()[r]))
			default:
				parts[c] = v.Datum(r).String()
			}
		}
		rows[r] = strings.Join(parts, "|")
	}
	sort.Strings(rows)
	return rows
}

// mlFact is a fact table of n rows: a sorted unique id, then one REAL
// column per name, drawn from rng.
func mlFact(t *testing.T, rng *rand.Rand, names []string, n, parts int) *storage.Table {
	t.Helper()
	cols := []types.Column{{Name: "id", Type: types.Int64}}
	for _, name := range names {
		cols = append(cols, types.Column{Name: name, Type: types.Float32})
	}
	tbl := storage.NewTable("fact", types.NewSchema(cols...), storage.Options{Partitions: parts})
	tbl.SetSortedBy(0)
	tbl.SetUniqueKey(0)
	b := vector.NewBatch(tbl.Schema, n)
	b.SetLen(n)
	for r := 0; r < n; r++ {
		b.Vecs[0].Int64s()[r] = int64(r)
		for c := range names {
			b.Vecs[1+c].Float32s()[r] = float32(rng.NormFloat64())
		}
	}
	if err := tbl.Append(b); err != nil {
		t.Fatal(err)
	}
	return tbl
}

// checkGroupJoins plans q with the groupjoin rule and with
// DisableSegmentedAgg, the plan without it: EXPLAIN must show want
// groupjoins and none, and the results must be bit-equal.
func checkGroupJoins(t *testing.T, cat Catalog, q string, disableParallel bool, want int, what string) {
	t.Helper()
	fused := planFor(t, &Planner{Cat: cat, DisableParallel: disableParallel}, q)
	plain := planFor(t, &Planner{Cat: cat, DisableParallel: disableParallel, DisableSegmentedAgg: true}, q)
	if got := strings.Count(fused.Explain(), "(groupjoin)"); got != want {
		t.Fatalf("%s: %d groupjoins, want %d:\n%s", what, got, want, fused.Explain())
	}
	if strings.Contains(plain.Explain(), "groupjoin") {
		t.Fatalf("%s: groupjoin with DisableSegmentedAgg:\n%s", what, plain.Explain())
	}
	got, ref := bitsRows(runPlan(t, fused)), bitsRows(runPlan(t, plain))
	if len(got) != len(ref) {
		t.Fatalf("%s: %d rows, want %d", what, len(got), len(ref))
	}
	for i := range got {
		if got[i] != ref[i] {
			t.Fatalf("%s: row %s, want %s", what, got[i], ref[i])
		}
	}
}

// TestGeneratedMLToSQLGroupJoin plans the generated ML-To-SQL query of
// random dense models — width 1–40, depth 1–3, both layouts, layer filter on
// and off, 1–4 partitions, parallel and serial — and demands one groupjoin
// per dense layer of each inference subquery, none without the rule, and
// bit-equal predictions.
func TestGeneratedMLToSQLGroupJoin(t *testing.T) {
	seed := time.Now().UnixNano()
	t.Cleanup(func() {
		if t.Failed() {
			t.Logf("seed %d", seed)
		}
	})
	rng := rand.New(rand.NewSource(seed))
	for iter := 0; iter < 16; iter++ {
		inputs, width, depth := 1+rng.Intn(4), 1+rng.Intn(40), 1+rng.Intn(3)
		layout := []relmodel.Layout{relmodel.LayoutPairs, relmodel.LayoutNodeID}[rng.Intn(2)]
		layerFilter, disableParallel := rng.Intn(2) == 0, rng.Intn(2) == 0
		parts := 1 + rng.Intn(4)
		model := nn.NewDenseModel("m", inputs, width, depth, 1+rng.Intn(2), rng.Int63())
		tbl, meta, err := relmodel.Export(model, relmodel.ExportOptions{Layout: layout, Partitions: parts})
		if err != nil {
			t.Fatal(err)
		}
		names := make([]string, inputs)
		for i := range names {
			names[i] = fmt.Sprintf("f%d", i)
		}
		cat := &testCatalog{tables: map[string]*storage.Table{"fact": mlFact(t, rng, names, 1+rng.Intn(60), parts), "m": tbl}}
		gen, err := mltosql.New(meta, mltosql.Options{FactTable: "fact", ModelTable: "m", InputColumns: names,
			LayerFilter: layerFilter, NativeFunctions: true})
		if err != nil {
			t.Fatal(err)
		}
		q, err := gen.Generate()
		if err != nil {
			t.Fatal(err)
		}
		what := fmt.Sprintf("iter %d: %d inputs, dense %dx%d, %s, layer filter %v, %d partitions, serial %v",
			iter, inputs, width, depth, layout, layerFilter, parts, disableParallel)
		// The output function repeats the inference once per output node.
		checkGroupJoins(t, cat, q, disableParallel, (len(meta.Layers)-1)*meta.OutputDim(), what)
	}
}

// TestGroupJoinShapes: the rule fires on a dense layer written by hand, in
// either operand order and with two sums, and refuses every other shape,
// which keeps the join and the aggregate and the same results. The LSTM
// query's recurrent steps also take MIN(s.x) and a SUM of a CASE, so only
// its dense output layer fuses.
func TestGroupJoinShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	fact := mlFact(t, rng, []string{"x", "y"}, 300, 3)
	node := storage.NewTable("model", types.NewSchema(
		types.Column{Name: "node_in", Type: types.Int32}, types.Column{Name: "node", Type: types.Int32},
		types.Column{Name: "w", Type: types.Float32}, types.Column{Name: "b", Type: types.Float32},
		types.Column{Name: "wd", Type: types.Float64},
	), storage.Options{})
	edges := vector.NewBatch(node.Schema, 0)
	for in := 0; in < 4; in++ {
		for out := 0; out < 5; out++ {
			_ = edges.AppendRow(types.Int32Datum(int32(in)), types.Int32Datum(int32(out)),
				types.Float32Datum(float32(rng.NormFloat64())), types.Float32Datum(float32(out)/4),
				types.Float64Datum(rng.NormFloat64()))
		}
	}
	if err := node.Append(edges); err != nil {
		t.Fatal(err)
	}
	cat := &testCatalog{tables: map[string]*storage.Table{"fact": fact, "model": node}}
	// The input, as ML-To-SQL's input function builds it: five rows per id,
	// nodes 0..4, of which node 4 matches no edge below.
	const input = "(SELECT f.id AS id, m.node AS node, f.x * CAST(m.node + 1 AS REAL) AS x, f.y AS y, " +
		"CAST(f.x AS DOUBLE) AS d FROM fact AS f, model AS m WHERE m.node_in = 0) AS i"
	layer := func(sel, groupBy string) string {
		return "SELECT " + sel + " FROM " + input + ", model AS m WHERE i.node = m.node_in GROUP BY " + groupBy
	}
	for _, c := range []struct {
		q    string
		want int
	}{
		{layer("i.id, m.node, m.b, SUM(i.x * m.w)", "i.id, m.node, m.b"), 1},
		{layer("i.id, m.node, SUM(m.w * i.x) AS s, SUM(i.d * m.wd) AS t", "m.node, i.id"), 1},
		{layer("i.id, m.node, SUM(i.x * i.y)", "i.id, m.node"), 0},
		{layer("i.id, i.node, m.node, SUM(i.x * m.w)", "i.id, i.node, m.node"), 0},
		{layer("i.id, m.node, SUM(i.x * m.w + 1)", "i.id, m.node"), 0},
		{layer("i.id, m.node, AVG(i.x * m.w)", "i.id, m.node"), 0},
		{layer("i.id, m.node, SUM(i.x * m.wd)", "i.id, m.node"), 0},
		{layer("i.id, m.node, SUM(i.x * m.w), COUNT(*)", "i.id, m.node"), 0},
	} {
		for _, serial := range []bool{false, true} {
			checkGroupJoins(t, cat, c.q, serial, c.want, c.q)
			if c.want == 0 && !strings.Contains(planFor(t, &Planner{Cat: cat, DisableParallel: serial}, c.q).Explain(), "HashJoin (node = node_in)") {
				t.Errorf("%s: the join is gone", c.q)
			}
		}
	}

	model := nn.NewLSTMModel("lstm", 3, 4, 7)
	tbl, meta, err := relmodel.Export(model, relmodel.ExportOptions{Layout: relmodel.LayoutNodeID, Partitions: 2})
	if err != nil {
		t.Fatal(err)
	}
	series := []string{"t0", "t1", "t2"}
	cat = &testCatalog{tables: map[string]*storage.Table{"fact": mlFact(t, rng, series, 50, 2), "lstm": tbl}}
	gen, err := mltosql.New(meta, mltosql.Options{FactTable: "fact", ModelTable: "lstm", InputColumns: series, NativeFunctions: true})
	if err != nil {
		t.Fatal(err)
	}
	q, err := gen.Generate()
	if err != nil {
		t.Fatal(err)
	}
	checkGroupJoins(t, cat, q, false, len(meta.Layers)-2, "LSTM")
}

// TestGroupJoinSharedBuildCounts runs EXPLAIN ANALYZE's span tree of the
// generated 4→32→32→1 query over 1, 2 and 4 partitions. Every model-side
// build is built once per plan whatever the partition count: each scan of
// the 1 188-row model table reads it once, and each layer filter passes its
// layer's edges once. The fact scans and each groupjoin's joined pairs count
// every partition, as they must.
func TestGroupJoinSharedBuildCounts(t *testing.T) {
	model := nn.NewDenseModel("m", 4, 32, 2, 1, 1)
	names := []string{"f0", "f1", "f2", "f3"}
	for _, parts := range []int{1, 2, 4} {
		tbl, meta, err := relmodel.Export(model, relmodel.ExportOptions{Layout: relmodel.LayoutPairs, Partitions: parts})
		if err != nil {
			t.Fatal(err)
		}
		fact := mlFact(t, rand.New(rand.NewSource(1)), names, 800, parts)
		cat := &testCatalog{tables: map[string]*storage.Table{"fact": fact, "m": tbl}}
		gen, err := mltosql.New(meta, mltosql.Options{FactTable: "fact", ModelTable: "m", InputColumns: names,
			LayerFilter: true, NativeFunctions: true})
		if err != nil {
			t.Fatal(err)
		}
		q, err := gen.Generate()
		if err != nil {
			t.Fatal(err)
		}
		p := planFor(t, &Planner{Cat: cat}, q)
		qt := trace.NewQueryTrace(q)
		op, err := p.Build(context.Background(), qt)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := exec.Collect(op); err != nil {
			t.Fatal(err)
		}
		filters := map[string]int64{"Filter (layer_in = -1)": 4, "Filter (layer = 1)": 128,
			"Filter (layer = 2)": 1024, "Filter (layer = 3)": 32}
		var modelScans, factScans int
		var pairs []int64
		var walk func(s trace.SpanStat)
		walk = func(s trace.SpanStat) {
			switch {
			case strings.HasPrefix(s.Name, "Scan m "):
				modelScans++
				if s.Rows != 1188 {
					t.Errorf("%d partitions: %s read %d rows, want 1188", parts, s.Name, s.Rows)
				}
			case s.Name == "Scan fact":
				factScans++
				if s.Rows != 800 {
					t.Errorf("%d partitions: %s read %d rows, want 800", parts, s.Name, s.Rows)
				}
			case strings.HasPrefix(s.Name, "Filter"):
				if want, ok := filters[s.Name]; !ok || s.Rows != want {
					t.Errorf("%d partitions: %s passed %d rows, want %d", parts, s.Name, s.Rows, want)
				}
				delete(filters, s.Name)
			case strings.Contains(s.Name, "(groupjoin)"):
				for _, c := range s.Counters {
					if c.Name == "pairs" {
						pairs = append(pairs, c.Value)
					}
				}
			}
			for _, c := range s.Children {
				walk(c)
			}
		}
		walk(qt.Root.Stat())
		if modelScans != 4 || factScans != 2 || len(filters) != 0 {
			t.Errorf("%d partitions: %d model scans, %d fact scans, filters %v missing, want 4, 2 and none:\n%s",
				parts, modelScans, factScans, filters, qt.Render())
		}
		// Pre-order from the outermost layer: 32, 32 × 32 and 4 × 32 pairs per id.
		if !slices.Equal(pairs, []int64{25600, 819200, 102400}) {
			t.Errorf("%d partitions: groupjoin pairs %v, want [25600 819200 102400]", parts, pairs)
		}
	}
}
