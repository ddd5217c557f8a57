package plan

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"time"

	"indbml/internal/core/modeljoin"
	"indbml/internal/core/relmodel"
	"indbml/internal/engine/exec"
	"indbml/internal/engine/sql"
	"indbml/internal/engine/storage"
	"indbml/internal/engine/types"
	"indbml/internal/engine/vector"
)

// sumJoin stands in for the native ModelJoin: it passes its input through and
// appends prediction = the sum of the input columns, so a plan that feeds it
// the wrong columns after pruning computes a different answer.
type sumJoin struct {
	child  exec.Operator
	inputs []int
	schema *types.Schema
}

func (s *sumJoin) Schema() *types.Schema { return s.schema }
func (s *sumJoin) Open() error           { return s.child.Open() }
func (s *sumJoin) Close() error          { return s.child.Close() }
func (s *sumJoin) Next() (*vector.Batch, error) {
	in, err := s.child.Next()
	if err != nil || in == nil {
		return nil, err
	}
	out := vector.NewBatch(s.schema, in.Len())
	for c, v := range in.Vecs {
		out.Vecs[c].CopyFrom(v, nil)
	}
	pred := out.Vecs[len(in.Vecs)]
	pred.Resize(in.Len())
	for r := range pred.Float32s() {
		var sum float64
		for _, c := range s.inputs {
			sum += in.Vecs[c].AsFloat64(r)
		}
		pred.Float32s()[r] = float32(sum)
	}
	out.SetLen(in.Len())
	return out, nil
}

// pruneCatalog is testCatalog plus one two-input model served by sumJoin.
type pruneCatalog struct{ testCatalog }

func (c *pruneCatalog) Model(name string) (*relmodel.Meta, error) {
	return &relmodel.Meta{Name: name, Layers: []relmodel.LayerMeta{{Kind: "input", Units: 2}, {Kind: "dense", Units: 1}}}, nil
}

func (c *pruneCatalog) NewModelJoin(_ string, child exec.Operator, inputCols []int, _ string) (exec.Operator, error) {
	cols := make([]types.Column, 0, child.Schema().Len()+1)
	for i := 0; i < child.Schema().Len(); i++ {
		cols = append(cols, child.Schema().Col(i))
	}
	return &sumJoin{child: child, inputs: inputCols, schema: types.NewSchema(append(cols, modeljoin.PredictionColumns(1)...)...)}, nil
}

// sortedRows renders a result as sorted row strings: partition-parallel plans
// emit partitions in any order.
func sortedRows(b *vector.Batch) []string {
	rows := make([]string, b.Len())
	for r := range rows {
		parts := make([]string, len(b.Vecs))
		for c, v := range b.Vecs {
			parts[c] = v.Datum(r).String()
		}
		rows[r] = strings.Join(parts, "|")
	}
	sort.Strings(rows)
	return rows
}

// TestGeneratedPruningKeepsResults plans every query twice — through
// PlanSelect, and through the same steps with the required-columns pass left
// out — over a freshly seeded table, and demands identical schemas and rows.
// The scans' column sets are read off EXPLAIN.
func TestGeneratedPruningKeepsResults(t *testing.T) {
	seed := time.Now().UnixNano()
	t.Cleanup(func() {
		if t.Failed() {
			t.Logf("seed %d", seed)
		}
	})
	rng := rand.New(rand.NewSource(seed))

	wide := storage.NewTable("wide", types.NewSchema(
		types.Column{Name: "id", Type: types.Int64},
		types.Column{Name: "g", Type: types.Int32},
		types.Column{Name: "a", Type: types.Float32},
		types.Column{Name: "b", Type: types.Float32},
		types.Column{Name: "c", Type: types.Float64},
		types.Column{Name: "s", Type: types.String},
		types.Column{Name: "unused", Type: types.Int64},
	), storage.Options{Partitions: 3})
	wide.SetSortedBy(0)
	wide.SetUniqueKey(0)
	b := vector.NewBatch(wide.Schema, 0)
	for i := 0; i < 700+rng.Intn(2000); i++ {
		g := types.Int32Datum(int32(rng.Intn(6)))
		if rng.Intn(10) == 0 {
			g = types.NullDatum(types.Int32)
		}
		_ = b.AppendRow(types.Int64Datum(int64(i)), g,
			types.Float32Datum(float32(rng.Intn(100))), types.Float32Datum(rng.Float32()),
			types.Float64Datum(rng.NormFloat64()), types.StringDatum(fmt.Sprintf("s%d", rng.Intn(4))),
			types.Int64Datum(rng.Int63()))
	}
	if err := wide.Append(b); err != nil {
		t.Fatal(err)
	}
	dim := storage.NewTable("dim", types.NewSchema(
		types.Column{Name: "g", Type: types.Int32},
		types.Column{Name: "label", Type: types.String},
		types.Column{Name: "weight", Type: types.Float64},
	), storage.Options{Partitions: 1})
	b = vector.NewBatch(dim.Schema, 5)
	for g := 0; g < 5; g++ {
		_ = b.AppendRow(types.Int32Datum(int32(g)), types.StringDatum(fmt.Sprintf("label%d", g)), types.Float64Datum(float64(g)/2))
	}
	if err := dim.Append(b); err != nil {
		t.Fatal(err)
	}
	pl := &Planner{Cat: &pruneCatalog{testCatalog{tables: map[string]*storage.Table{"wide": wide, "dim": dim}}}}

	for _, tc := range []struct {
		query string
		scans []string // substrings EXPLAIN must contain
	}{
		{"SELECT * FROM wide", []string{"Scan wide\n"}},
		{"SELECT a FROM wide WHERE b > 0.5", []string{"Scan wide [2 of 7 columns]"}},
		{"SELECT w.a, d.label FROM wide AS w, dim AS d WHERE w.g = d.g", []string{"Scan wide [2 of 7 columns]", "Scan dim [2 of 3 columns]"}},
		{"SELECT COUNT(*) AS n FROM wide AS w, dim AS d WHERE w.g = d.g", []string{"Scan wide [2 of 7 columns]", "Scan dim [1 of 3 columns]"}}, // id carries the join's row count
		{"SELECT g, COUNT(*) AS n, SUM(c) AS sc FROM wide GROUP BY g", []string{"Scan wide [2 of 7 columns]"}},
		{"SELECT id, SUM(a) AS sa FROM wide GROUP BY id, g", []string{"Scan wide [3 of 7 columns]", "SegmentedAggregate"}},
		{"SELECT s FROM wide ORDER BY c DESC LIMIT 20", []string{"Scan wide [2 of 7 columns]"}},
		{"SELECT id, a FROM wide ORDER BY id", []string{"Scan wide [2 of 7 columns]"}},
		{"SELECT COUNT(*) AS n FROM wide", []string{"Scan wide [1 of 7 columns]"}},
		{"SELECT id, prediction FROM wide MODEL JOIN m PREDICT(a, b)", []string{"Scan wide [3 of 7 columns]"}},
		{"SELECT AVG(prediction) AS p FROM wide MODEL JOIN m PREDICT(b, c) WHERE g = 1", []string{"Scan wide [3 of 7 columns]"}},
		{"SELECT x.id, y.a FROM wide AS x, wide AS y WHERE x.id = y.id AND x.b < 0.3", []string{"Scan wide [2 of 7 columns]"}},
		{"SELECT t.id FROM (SELECT id, a + b AS ab, s, c FROM wide WHERE g < 3) AS t WHERE t.c > 0", []string{"Scan wide [1 zone-map filters] [3 of 7 columns]"}},
		{"SELECT t.g FROM (SELECT g, SUM(a) AS sa, MAX(s) AS ms FROM wide GROUP BY g) AS t", []string{"Scan wide [1 of 7 columns]", "aggs []"}},
		{"SELECT u.k, u.k2 FROM (SELECT t.k AS k, t.k AS k2, t.v + 1 AS v FROM (SELECT id AS k, a * 2 AS v FROM wide) AS t) AS u WHERE u.v > 50", []string{"Scan wide [2 of 7 columns]"}},
		{"SELECT DISTINCT s FROM wide", []string{"Scan wide [1 of 7 columns]"}},
	} {
		sel, err := sql.ParseSelect(tc.query)
		if err != nil {
			t.Fatalf("%s: %v", tc.query, err)
		}
		pruned, err := pl.PlanSelect(sel)
		if err != nil {
			t.Fatalf("%s: %v", tc.query, err)
		}
		sel, _ = sql.ParseSelect(tc.query) // binding rewrites nothing, but keep the two plans apart
		root, err := pl.bindSelect(sel)
		if err != nil {
			t.Fatal(err)
		}
		unpruned := pl.physical(pl.optimize(root))

		if !pruned.Schema().Equal(unpruned.Schema()) {
			t.Errorf("%s: schema %s, unpruned %s", tc.query, pruned.Schema(), unpruned.Schema())
		}
		got, want := sortedRows(runPlan(t, pruned)), sortedRows(runPlan(t, unpruned))
		if len(got) != len(want) {
			t.Fatalf("%s: %d rows, unpruned plan %d\n%s", tc.query, len(got), len(want), pruned.Explain())
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("%s: row %d = %s, unpruned plan %s\n%s", tc.query, i, got[i], want[i], pruned.Explain())
			}
		}
		for _, s := range tc.scans {
			if !strings.Contains(pruned.Explain(), s) {
				t.Errorf("%s: EXPLAIN lacks %q:\n%s", tc.query, s, pruned.Explain())
			}
		}
		if pruned.Parallel() != unpruned.Parallel() {
			t.Errorf("%s: parallel = %v, unpruned plan %v", tc.query, pruned.Parallel(), unpruned.Parallel())
		}
	}
}

// TestModelJoinInputCheckOverScope: the planner checks MODEL JOIN's input
// columns over its bound scope with modeljoin's one rule and wording, and
// builds no schema to do it.
func TestModelJoinInputCheckOverScope(t *testing.T) {
	sc := &scope{cols: []scopeCol{{name: "id", typ: types.Int64}, {name: "a", typ: types.Float32}, {name: "s", typ: types.String}}}
	inputs := []int{0, 1}
	if n := testing.AllocsPerRun(100, func() {
		if err := modeljoin.CheckInputs("m", 2, sc, inputs); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("input check allocates %.0f times", n)
	}
	for _, c := range []struct {
		inputs []int
		want   string
	}{
		{[]int{1}, "modeljoin: model m expects 2 input columns, got 1"},
		{[]int{1, 3}, "modeljoin: input column 3 out of range"},
		{[]int{1, 2}, `modeljoin: input column "s" is not numeric`},
	} {
		if err := modeljoin.CheckInputs("m", 2, sc, c.inputs); err == nil || err.Error() != c.want {
			t.Errorf("inputs %v: %v, want %q", c.inputs, err, c.want)
		}
	}
}
