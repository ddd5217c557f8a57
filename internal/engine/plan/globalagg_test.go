package plan

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"time"

	"indbml/internal/core/modeljoin"
	"indbml/internal/core/relmodel"
	"indbml/internal/device"
	"indbml/internal/engine/exec"
	"indbml/internal/engine/storage"
	"indbml/internal/engine/types"
	"indbml/internal/engine/vector"
	"indbml/internal/infersched"
	"indbml/internal/metrics"
	"indbml/internal/nn"
)

// modelCatalog is testCatalog plus one model served by the real ModelJoin
// operator through an inference scheduler.
type modelCatalog struct {
	testCatalog
	meta   *relmodel.Meta
	shared *modeljoin.SharedModel
	sched  *infersched.Scheduler
}

func (c *modelCatalog) Model(string) (*relmodel.Meta, error) { return c.meta, nil }

func (c *modelCatalog) NewModelJoin(_ string, child exec.Operator, inputCols []int, _ string) (exec.Operator, error) {
	return modeljoin.New(child, c.shared, inputCols, c.sched, infersched.Label{})
}

// TestGlobalAggregateSplitExplain pins the plan of a global aggregate over
// a partitioned driver: a partial aggregate per partition under the
// Exchange, which like them has no columns, the final merge and its
// HAVING and projection above it. A
// grouped aggregate keeps the whole plan under the Exchange, and a
// subquery's LIMIT keeps the plan serial.
func TestGlobalAggregateSplitExplain(t *testing.T) {
	fact := newFact(t, "fact", 100, 4, true)
	pl := &Planner{Cat: &testCatalog{tables: map[string]*storage.Table{"fact": fact}}}
	for _, tc := range []struct {
		q, want string
		count   int64 // the first column's value, when not 0
	}{
		{"SELECT COUNT(*) AS c, AVG(v) AS a FROM fact WHERE grp > 1 HAVING MIN(v) > 0", `Project agg0 AS c, agg1 AS a
  Filter (agg2 > 0)
    HashAggregate (final) by [] aggs [agg0, agg1, agg2]
      Exchange [4 partitions of fact]
        HashAggregate (partial) by [] aggs [agg0, agg1, agg2]
          Filter (grp > 1)
            Scan fact [1 zone-map filters] [2 of 3 columns]
`, 60},
		{"SELECT id, SUM(v) AS s FROM fact GROUP BY id", `Exchange [4 partitions of fact]
Project id AS id, agg0 AS s
  SegmentedAggregate (pipelined) by [id] aggs [agg0]
    Scan fact [2 of 3 columns]
`, 0},
		{"SELECT COUNT(*) AS c FROM (SELECT id FROM fact ORDER BY id LIMIT 10) AS t", `Project agg0 AS c
  HashAggregate by [] aggs [agg0]
    Limit 10
      Sort id ASC
        Project id AS id
          Scan fact [1 of 3 columns]
`, 10},
	} {
		p := planFor(t, pl, tc.q)
		if got := p.Explain(); got != tc.want {
			t.Errorf("%s:\n%s\nwant\n%s", tc.q, got, tc.want)
		}
		walk(p.root, func(n node) {
			// The Exchange over the partials passes on their scope, which
			// must describe what they emit: no columns.
			if a, ok := n.(*aggNode); ok && a.partial && a.scope().Len() != 0 {
				t.Errorf("%s: partial scope %s, but partials emit no columns", tc.q, a.scope().schema())
			}
		})
		if got := runPlan(t, p).Vecs[0].Int64s()[0]; tc.count != 0 && got != tc.count {
			t.Errorf("%s = %d, want %d", tc.q, got, tc.count)
		}
	}
}

// globalFact is a fact table of n rows in parts partitions: a unique id,
// four REAL model inputs, then columns for the aggregates: i INTEGER, x
// REAL, d DOUBLE, s VARCHAR and b BOOLEAN with NULLs, n DOUBLE all NULL,
// and q DOUBLE with NULLs and NaNs. It also returns q's values, nil for a
// NULL, by row.
func globalFact(t *testing.T, rng *rand.Rand, n, parts int) (*storage.Table, []*float64) {
	t.Helper()
	tbl := storage.NewTable("fact", types.NewSchema(
		types.Column{Name: "id", Type: types.Int64},
		types.Column{Name: "f0", Type: types.Float32}, types.Column{Name: "f1", Type: types.Float32},
		types.Column{Name: "f2", Type: types.Float32}, types.Column{Name: "f3", Type: types.Float32},
		types.Column{Name: "i", Type: types.Int32}, types.Column{Name: "x", Type: types.Float32},
		types.Column{Name: "d", Type: types.Float64}, types.Column{Name: "s", Type: types.String},
		types.Column{Name: "b", Type: types.Bool}, types.Column{Name: "n", Type: types.Float64},
		types.Column{Name: "q", Type: types.Float64},
	), storage.Options{Partitions: parts})
	tbl.SetSortedBy(0)
	tbl.SetUniqueKey(0)
	b := vector.NewBatch(tbl.Schema, n)
	qs := make([]*float64, n)
	null := func(d types.Datum) types.Datum {
		if rng.Intn(5) == 0 {
			return types.NullDatum(d.Type)
		}
		return d
	}
	for r := 0; r < n; r++ {
		q := types.NullDatum(types.Float64)
		if k := rng.Intn(4); k > 0 {
			v := rng.NormFloat64()
			if k == 1 {
				v = math.NaN()
			}
			q, qs[r] = types.Float64Datum(v), &v
		}
		if err := b.AppendRow(types.Int64Datum(int64(r)),
			types.Float32Datum(float32(rng.NormFloat64())), types.Float32Datum(float32(rng.NormFloat64())),
			types.Float32Datum(float32(rng.NormFloat64())), types.Float32Datum(float32(rng.NormFloat64())),
			null(types.Int32Datum(int32(rng.Intn(2_000_001)-1_000_000))),
			null(types.Float32Datum(float32(rng.NormFloat64()*1000))),
			null(types.Float64Datum(rng.ExpFloat64())),
			null(types.StringDatum(fmt.Sprintf("s%d", rng.Intn(50)))),
			null(types.BoolDatum(rng.Intn(2) == 0)),
			types.NullDatum(types.Float64), q); err != nil {
			t.Fatal(err)
		}
	}
	if err := tbl.Append(b); err != nil {
		t.Fatal(err)
	}
	return tbl, qs
}

// TestGeneratedGlobalAggregates runs global COUNT(*), COUNT, SUM, AVG, MIN
// and MAX over plain scans and over MODEL JOIN, on 1–4 partitions at
// Parallelism 0, 1, 2 and 4, with NULL and all-NULL inputs and filters that
// empty some partitions or all of them. Every plan must return the same
// bits on every repeat. Against the DisableParallel plan, COUNT, MIN, MAX
// and integer SUM must be equal and float SUM and AVG within 1e-9 of Σ|x|
// (plus one rounding to REAL for a REAL SUM). MIN and MAX over q, which
// holds NaN, are order-dependent: the split plan returns each partition's
// extreme, taken in row order, merged in partition order by the same rule,
// where a NaN never replaces a value and nothing replaces a NaN.
func TestGeneratedGlobalAggregates(t *testing.T) {
	seed := time.Now().UnixNano()
	t.Logf("seed %d", seed)
	rng := rand.New(rand.NewSource(seed))
	sched := infersched.New(metrics.NewRegistry())
	plain := []string{"COUNT(*)", "COUNT(i)", "SUM(i)", "AVG(i)", "MIN(i)", "MAX(i)", "COUNT(x)", "SUM(x)",
		"AVG(x)", "MIN(x)", "MAX(x)", "SUM(d)", "AVG(d)", "MIN(d)", "MAX(d)", "MIN(s)", "MAX(s)", "COUNT(s)",
		"MIN(b)", "MAX(b)", "COUNT(n)", "SUM(n)", "AVG(n)", "MIN(n)", "MAX(n)", "SUM(i + 1) - COUNT(*)"}
	predicted := []string{"COUNT(*)", "COUNT(prediction)", "SUM(prediction)", "AVG(prediction)",
		"MIN(prediction)", "MAX(prediction)", "SUM(i)", "MAX(x)"}
	for iter := 0; iter < 24; iter++ {
		parts, par := 1+rng.Intn(4), []int{0, 1, 2, 4}[rng.Intn(4)]
		rows := rng.Intn(3 * vector.Size)
		fact, qs := globalFact(t, rng, rows, parts)
		model := nn.NewDenseModel("m", 4, 1+rng.Intn(24), 1+rng.Intn(3), 1, rng.Int63())
		mt, meta, err := relmodel.Export(model, relmodel.ExportOptions{Partitions: 1 + rng.Intn(2)})
		if err != nil {
			t.Fatal(err)
		}
		cat := &modelCatalog{testCatalog: testCatalog{tables: map[string]*storage.Table{"fact": fact, "m": mt}},
			meta: meta, shared: &modeljoin.SharedModel{Table: mt, Meta: meta, Dev: device.NewCPU()}, sched: sched}
		// Rows r ≥ lo, and in half the cases none of partition 0's.
		lo, skip0 := rng.Intn(rows+2), rng.Intn(2) == 0
		where := fmt.Sprintf(" WHERE id >= %d", lo)
		if skip0 {
			where += fmt.Sprintf(" AND id %% %d <> 0", parts)
		}
		what := fmt.Sprintf("iter %d: %d rows, %d partitions, parallelism %d", iter, rows, parts, par)
		for _, tc := range []struct {
			from  string
			items []string
		}{
			{"fact", plain},
			{"fact MODEL JOIN m PREDICT(f0, f1, f2, f3)", predicted},
		} {
			q := "SELECT " + strings.Join(tc.items, ", ") + " FROM " + tc.from + where
			checkGlobalAgg(t, cat, par, q, tc.items, parts > 1, what)
		}
		q := "SELECT MIN(q), MAX(q), COUNT(q) FROM fact" + where
		got := runPlan(t, planFor(t, &Planner{Cat: cat, Parallelism: par}, q))
		for k := 0; k < 2; k++ {
			if again := runPlan(t, planFor(t, &Planner{Cat: cat, Parallelism: par}, q)); !slices.Equal(bitsRows(again), bitsRows(got)) {
				t.Fatalf("%s: %s: %v, then %v", what, q, bitsRows(got), bitsRows(again))
			}
		}
		for c, isMax := range []bool{false, true} {
			want := mergedExtreme(qs, lo, skip0, parts, isMax)
			if g := got.Vecs[c]; (want == nil) != g.NullAt(0) || (want != nil && math.Float64bits(*want) != math.Float64bits(g.Float64s()[0])) {
				t.Errorf("%s: %s column %d = %v, want %v", what, q, c, bitsRows(got), fmtPtr(want))
			}
		}
	}
}

// checkGlobalAgg runs q, whose select list is items, under the planner
// and the DisableParallel planner and holds the results to the rules of
// TestGeneratedGlobalAggregates.
func checkGlobalAgg(t *testing.T, cat Catalog, par int, q string, items []string, split bool, what string) {
	t.Helper()
	p := planFor(t, &Planner{Cat: cat, Parallelism: par}, q)
	if strings.Contains(p.Explain(), "HashAggregate (final)") != split {
		t.Fatalf("%s: %s: split %v, plan:\n%s", what, q, !split, p.Explain())
	}
	got := runPlan(t, p)
	for k := 0; k < 2; k++ {
		if again := runPlan(t, planFor(t, &Planner{Cat: cat, Parallelism: par}, q)); !slices.Equal(bitsRows(again), bitsRows(got)) {
			t.Fatalf("%s: %s: %v, then %v", what, q, bitsRows(got), bitsRows(again))
		}
	}
	serial := &Planner{Cat: cat, Parallelism: par, DisableParallel: true}
	want := runPlan(t, planFor(t, serial, q))
	for c, item := range items {
		g, w := got.Vecs[c], want.Vecs[c]
		if g.NullAt(0) || w.NullAt(0) || (!strings.HasPrefix(item, "SUM") && !strings.HasPrefix(item, "AVG")) || !g.Type().IsFloat() {
			if gs, ws := bitsRows(vecBatch(g)), bitsRows(vecBatch(w)); gs[0] != ws[0] {
				t.Errorf("%s: %s: %s = %s, serial plan %s", what, q, item, gs[0], ws[0])
			}
			continue
		}
		// Σ|x| and the count of x, from the serial plan.
		arg := item[4 : len(item)-1]
		ref := runPlan(t, planFor(t, serial, strings.Replace(q, strings.Join(items, ", "), fmt.Sprintf("SUM(ABS(CAST(%s AS DOUBLE))), COUNT(%s)", arg, arg), 1)))
		tol := 1e-9 * ref.Vecs[0].Float64s()[0]
		if strings.HasPrefix(item, "AVG") {
			tol /= float64(ref.Vecs[1].Int64s()[0])
		}
		gv, wv := g.AsFloat64(0), w.AsFloat64(0)
		if g.Type() == types.Float32 {
			tol += float64(ulp32(float32(wv)))
		}
		if math.Abs(gv-wv) > tol {
			t.Errorf("%s: %s: %s = %v, serial plan %v, tolerance %g", what, q, item, gv, wv, tol)
		}
	}
}

// mergedExtreme is the split plan's MIN or MAX over the values of rows
// [lo, …), without partition 0's when skip0; row r sits in partition
// r % parts, in row order.
func mergedExtreme(vals []*float64, lo int, skip0 bool, parts int, isMax bool) *float64 {
	better := func(acc, x *float64) *float64 {
		if acc == nil || (x != nil && ((isMax && *x > *acc) || (!isMax && *x < *acc))) {
			return x
		}
		return acc
	}
	var out *float64
	for p := 0; p < parts; p++ {
		var part *float64
		for r := p; r < len(vals); r += parts {
			if r >= lo && !(skip0 && p == 0) {
				part = better(part, vals[r])
			}
		}
		out = better(out, part)
	}
	return out
}

func fmtPtr(v *float64) string {
	if v == nil {
		return "NULL"
	}
	return fmt.Sprintf("%#x", math.Float64bits(*v))
}

func ulp32(x float32) float32 {
	return math.Nextafter32(float32(math.Abs(float64(x))), float32(math.Inf(1))) - float32(math.Abs(float64(x)))
}

// vecBatch wraps one row-0 value as a batch for bitsRows.
func vecBatch(v *vector.Vector) *vector.Batch {
	b := &vector.Batch{Schema: types.NewSchema(types.Column{Name: "v", Type: v.Type()}), Vecs: []*vector.Vector{v}}
	b.SetLen(1)
	return b
}
