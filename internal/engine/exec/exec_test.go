package exec

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"indbml/internal/engine/expr"
	"indbml/internal/engine/types"
	"indbml/internal/engine/vector"
)

func intBatch(name string, vals ...int64) (*types.Schema, *vector.Batch) {
	schema := types.NewSchema(types.Column{Name: name, Type: types.Int64})
	b := vector.NewBatch(schema, len(vals))
	for _, v := range vals {
		_ = b.AppendRow(types.Int64Datum(v))
	}
	return schema, b
}

// leftRightJoin is NewHashJoin over a left and a right input, building the
// one buildRight names.
func leftRightJoin(left, right Operator, leftKeys, rightKeys []expr.Expr, buildRight bool, keep []int) (*HashJoin, error) {
	if buildRight {
		return NewHashJoin(left, NewBuild(right), leftKeys, rightKeys, true, keep)
	}
	return NewHashJoin(right, NewBuild(left), rightKeys, leftKeys, false, keep)
}

func twoColBatch(n int, f func(i int) (int64, float64)) (*types.Schema, *vector.Batch) {
	schema := types.NewSchema(
		types.Column{Name: "k", Type: types.Int64},
		types.Column{Name: "v", Type: types.Float64},
	)
	b := vector.NewBatch(schema, n)
	for i := 0; i < n; i++ {
		k, v := f(i)
		_ = b.AppendRow(types.Int64Datum(k), types.Float64Datum(v))
	}
	return schema, b
}

func colRef(s *types.Schema, name string) *expr.ColRef {
	i, ok := s.Lookup(name)
	if !ok {
		panic("no column " + name)
	}
	return expr.NewColRef(i, name, s.Col(i).Type)
}

func TestFilter(t *testing.T) {
	schema, b := intBatch("x", 1, 2, 3, 4, 5, 6)
	pred, err := expr.NewBinOp(expr.OpGt, colRef(schema, "x"), expr.NewConst(types.Int64Datum(3)))
	if err != nil {
		t.Fatal(err)
	}
	f, err := NewFilter(NewValues(schema, b), pred)
	if err != nil {
		t.Fatal(err)
	}
	out, err := Collect(f)
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != 3 {
		t.Fatalf("filter kept %d rows, want 3", out.Len())
	}
	for i, want := range []int64{4, 5, 6} {
		if out.Vecs[0].Int64s()[i] != want {
			t.Errorf("row %d = %d, want %d", i, out.Vecs[0].Int64s()[i], want)
		}
	}
}

func TestProject(t *testing.T) {
	schema, b := intBatch("x", 10, 20)
	double, _ := expr.NewBinOp(expr.OpMul, colRef(schema, "x"), expr.NewConst(types.Int64Datum(2)))
	p, err := NewProject(NewValues(schema, b), []expr.Expr{double}, []string{"d"})
	if err != nil {
		t.Fatal(err)
	}
	out, err := Collect(p)
	if err != nil {
		t.Fatal(err)
	}
	if out.Vecs[0].Int64s()[0] != 20 || out.Vecs[0].Int64s()[1] != 40 {
		t.Errorf("project output wrong: %v", out.Vecs[0].Int64s())
	}
	if out.Schema.Col(0).Name != "d" {
		t.Errorf("projected column name = %q", out.Schema.Col(0).Name)
	}
}

func TestHashJoinInner(t *testing.T) {
	ls, lb := twoColBatch(6, func(i int) (int64, float64) { return int64(i % 3), float64(i) })
	rs, rb := twoColBatch(3, func(i int) (int64, float64) { return int64(i), float64(i) * 100 })

	for _, buildRight := range []bool{true, false} {
		j, err := leftRightJoin(
			NewValues(ls, lb), NewValues(rs, rb),
			[]expr.Expr{colRef(ls, "k")}, []expr.Expr{colRef(rs, "k")},
			buildRight, nil,
		)
		if err != nil {
			t.Fatal(err)
		}
		out, err := Collect(j)
		if err != nil {
			t.Fatal(err)
		}
		if out.Len() != 6 {
			t.Fatalf("buildRight=%v: joined %d rows, want 6", buildRight, out.Len())
		}
		// Keys on both sides must match row-wise.
		for i := 0; i < out.Len(); i++ {
			if out.Vecs[0].Int64s()[i] != out.Vecs[2].Int64s()[i] {
				t.Fatalf("buildRight=%v: key mismatch at row %d", buildRight, i)
			}
			if out.Vecs[3].Float64s()[i] != float64(out.Vecs[0].Int64s()[i])*100 {
				t.Fatalf("buildRight=%v: payload mismatch at row %d", buildRight, i)
			}
		}
	}
}

func TestHashJoinPreservesProbeOrder(t *testing.T) {
	// With BuildRight, output must preserve the left (probe) input order —
	// the property ML-To-SQL's pipelined aggregation depends on (Sec. 4.4).
	n := 3000
	ls, lb := twoColBatch(n, func(i int) (int64, float64) { return int64(i % 5), float64(i) })
	rs, rb := twoColBatch(5, func(i int) (int64, float64) { return int64(i), 0 })
	j, err := NewHashJoin(NewValues(ls, lb), NewBuild(NewValues(rs, rb)),
		[]expr.Expr{colRef(ls, "k")}, []expr.Expr{colRef(rs, "k")}, true, nil)
	if err != nil {
		t.Fatal(err)
	}
	out, err := Collect(j)
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != n {
		t.Fatalf("joined %d rows, want %d", out.Len(), n)
	}
	for i := 1; i < out.Len(); i++ {
		if out.Vecs[1].Float64s()[i] <= out.Vecs[1].Float64s()[i-1] {
			t.Fatalf("probe order not preserved at row %d", i)
		}
	}
}

func TestCrossJoin(t *testing.T) {
	ls, lb := intBatch("a", 1, 2, 3)
	rs, rb := intBatch("b", 10, 20)
	j, err := NewCrossJoin(NewValues(ls, lb), NewBuild(NewValues(rs, rb)))
	if err != nil {
		t.Fatal(err)
	}
	out, err := Collect(j)
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != 6 {
		t.Fatalf("cross join produced %d rows, want 6", out.Len())
	}
	counts := map[[2]int64]int{}
	for i := 0; i < 6; i++ {
		counts[[2]int64{out.Vecs[0].Int64s()[i], out.Vecs[1].Int64s()[i]}]++
	}
	if len(counts) != 6 {
		t.Errorf("cross join pairs not distinct: %v", counts)
	}
}

func TestHashJoinVsNestedLoopOracle(t *testing.T) {
	err := quick.Check(func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nl, nr := rng.Intn(300)+1, rng.Intn(50)+1
		ls, lb := twoColBatch(nl, func(i int) (int64, float64) { return int64(rng.Intn(10)), float64(i) })
		rs, rb := twoColBatch(nr, func(i int) (int64, float64) { return int64(rng.Intn(10)), float64(i) })
		j, err := NewHashJoin(NewValues(ls, lb), NewBuild(NewValues(rs, rb)),
			[]expr.Expr{colRef(ls, "k")}, []expr.Expr{colRef(rs, "k")}, true, nil)
		if err != nil {
			return false
		}
		out, err := Collect(j)
		if err != nil {
			return false
		}
		// Nested-loop oracle.
		want := 0
		for i := 0; i < nl; i++ {
			for k := 0; k < nr; k++ {
				if lb.Vecs[0].Int64s()[i] == rb.Vecs[0].Int64s()[k] {
					want++
				}
			}
		}
		return out.Len() == want
	}, &quick.Config{MaxCount: 30})
	if err != nil {
		t.Error(err)
	}
}

func sumOracle(b *vector.Batch) map[int64]float64 {
	want := map[int64]float64{}
	for i := 0; i < b.Len(); i++ {
		want[b.Vecs[0].Int64s()[i]] += b.Vecs[1].Float64s()[i]
	}
	return want
}

func TestHashAggregateSum(t *testing.T) {
	schema, b := twoColBatch(1000, func(i int) (int64, float64) { return int64(i % 7), float64(i) })
	agg, err := NewHashAggregate(NewValues(schema, b),
		[]expr.Expr{colRef(schema, "k")}, []string{"k"},
		[]AggSpec{{Func: AggSum, Arg: colRef(schema, "v"), Name: "s"},
			{Func: AggCountStar, Name: "c"}})
	if err != nil {
		t.Fatal(err)
	}
	out, err := Collect(agg)
	if err != nil {
		t.Fatal(err)
	}
	want := sumOracle(b)
	if out.Len() != len(want) {
		t.Fatalf("got %d groups, want %d", out.Len(), len(want))
	}
	for i := 0; i < out.Len(); i++ {
		k := out.Vecs[0].Int64s()[i]
		if got := out.Vecs[1].Float64s()[i]; got != want[k] {
			t.Errorf("sum(k=%d) = %v, want %v", k, got, want[k])
		}
		if out.Vecs[2].Int64s()[i] == 0 {
			t.Errorf("count(k=%d) = 0", k)
		}
	}
}

func TestSegmentedAggregateMatchesHash(t *testing.T) {
	// Sorted input: both aggregate variants must agree — the equivalence
	// behind the Sec. 4.4 optimization.
	schema, b := twoColBatch(5000, func(i int) (int64, float64) { return int64(i / 13), float64(i % 10) })
	mk := func() []AggSpec {
		return []AggSpec{
			{Func: AggSum, Arg: colRef(schema, "v"), Name: "s"},
			{Func: AggMin, Arg: colRef(schema, "v"), Name: "mn"},
			{Func: AggMax, Arg: colRef(schema, "v"), Name: "mx"},
			{Func: AggAvg, Arg: colRef(schema, "v"), Name: "avg"},
		}
	}
	h, err := NewHashAggregate(NewValues(schema, b), []expr.Expr{colRef(schema, "k")}, []string{"k"}, mk())
	if err != nil {
		t.Fatal(err)
	}
	o, err := NewSegmentedAggregate(NewValues(schema, b), []expr.Expr{colRef(schema, "k")}, []string{"k"}, mk(), 0)
	if err != nil {
		t.Fatal(err)
	}
	hb, err := Collect(h)
	if err != nil {
		t.Fatal(err)
	}
	ob, err := Collect(o)
	if err != nil {
		t.Fatal(err)
	}
	if hb.Len() != ob.Len() {
		t.Fatalf("hash %d groups, segmented %d", hb.Len(), ob.Len())
	}
	hmap := map[int64][]float64{}
	for i := 0; i < hb.Len(); i++ {
		hmap[hb.Vecs[0].Int64s()[i]] = []float64{hb.Vecs[1].Float64s()[i], hb.Vecs[2].Float64s()[i], hb.Vecs[3].Float64s()[i], hb.Vecs[4].Float64s()[i]}
	}
	for i := 0; i < ob.Len(); i++ {
		k := ob.Vecs[0].Int64s()[i]
		want := hmap[k]
		got := []float64{ob.Vecs[1].Float64s()[i], ob.Vecs[2].Float64s()[i], ob.Vecs[3].Float64s()[i], ob.Vecs[4].Float64s()[i]}
		for c := range want {
			if got[c] != want[c] {
				t.Fatalf("group %d col %d: segmented %v, hash %v", k, c, got[c], want[c])
			}
		}
	}
}

func TestScalarAggregateEmptyInput(t *testing.T) {
	schema := types.NewSchema(types.Column{Name: "v", Type: types.Float64})
	agg, err := NewHashAggregate(NewValues(schema),
		nil, nil,
		[]AggSpec{{Func: AggCountStar, Name: "c"}, {Func: AggSum, Arg: expr.NewColRef(0, "v", types.Float64), Name: "s"}})
	if err != nil {
		t.Fatal(err)
	}
	out, err := Collect(agg)
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != 1 {
		t.Fatalf("scalar aggregate over empty input returned %d rows, want 1", out.Len())
	}
	if out.Vecs[0].Int64s()[0] != 0 {
		t.Errorf("COUNT(*) = %d, want 0", out.Vecs[0].Int64s()[0])
	}
	if !out.Vecs[1].NullAt(0) {
		t.Error("SUM over empty input should be NULL")
	}
}

func TestSortAscDesc(t *testing.T) {
	schema, b := intBatch("x", 5, 3, 9, 1, 7)
	s := NewSort(NewValues(schema, b), []SortKey{{E: colRef(schema, "x")}})
	out, err := Collect(s)
	if err != nil {
		t.Fatal(err)
	}
	vals := out.Vecs[0].Int64s()
	if !sort.SliceIsSorted(vals, func(i, j int) bool { return vals[i] < vals[j] }) {
		t.Errorf("ascending sort wrong: %v", vals)
	}
	sd := NewSort(NewValues(schema, b), []SortKey{{E: colRef(schema, "x"), Desc: true}})
	outD, err := Collect(sd)
	if err != nil {
		t.Fatal(err)
	}
	valsD := outD.Vecs[0].Int64s()
	for i := 1; i < len(valsD); i++ {
		if valsD[i] > valsD[i-1] {
			t.Errorf("descending sort wrong: %v", valsD)
		}
	}
}

func TestLimit(t *testing.T) {
	schema, b := intBatch("x", 1, 2, 3, 4, 5)
	out, err := Collect(NewLimit(NewValues(schema, b), 2))
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != 2 {
		t.Errorf("limit 2 returned %d rows", out.Len())
	}
}

func TestUnionAll(t *testing.T) {
	schema, b1 := intBatch("x", 1, 2)
	_, b2 := intBatch("x", 3)
	out, err := Collect(NewUnionAll(NewValues(schema, b1), NewValues(schema, b2)))
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != 3 {
		t.Errorf("union all returned %d rows, want 3", out.Len())
	}
}

func TestExchangeMergesAllPartitions(t *testing.T) {
	var children []Operator
	total := 0
	for p := 0; p < 8; p++ {
		schema, b := twoColBatch(100+p, func(i int) (int64, float64) { return int64(p), float64(i) })
		children = append(children, NewValues(schema, b))
		total += 100 + p
	}
	ex, err := NewExchange(children, 4)
	if err != nil {
		t.Fatal(err)
	}
	out, err := Collect(ex)
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != total {
		t.Errorf("exchange merged %d rows, want %d", out.Len(), total)
	}
	perPart := map[int64]int{}
	for i := 0; i < out.Len(); i++ {
		perPart[out.Vecs[0].Int64s()[i]]++
	}
	for p := 0; p < 8; p++ {
		if perPart[int64(p)] != 100+p {
			t.Errorf("partition %d contributed %d rows, want %d", p, perPart[int64(p)], 100+p)
		}
	}
}

func TestCollectRunsFullProtocol(t *testing.T) {
	schema, b := intBatch("x", 1)
	out, err := Collect(NewValues(schema, b))
	if err != nil || out.Len() != 1 {
		t.Fatalf("collect: %v, %d rows", err, out.Len())
	}
}
