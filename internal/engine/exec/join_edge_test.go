package exec

import (
	"errors"
	"testing"

	"indbml/internal/engine/expr"
	"indbml/internal/engine/types"
	"indbml/internal/engine/vector"
)

// TestHashJoinMatchExplosionAcrossBatches exercises the mid-row resume
// logic: a single probe row matching far more build rows than fit in one
// output batch must emit across several Next calls without loss or
// duplication.
func TestHashJoinMatchExplosionAcrossBatches(t *testing.T) {
	const buildRows = 3*vector.Size + 17
	ls, lb := twoColBatch(3, func(i int) (int64, float64) { return 1, float64(i) })
	rs, rb := twoColBatch(buildRows, func(i int) (int64, float64) { return 1, float64(i) })
	j, err := NewHashJoin(NewValues(ls, lb), NewBuild(NewValues(rs, rb)),
		[]expr.Expr{colRef(ls, "k")}, []expr.Expr{colRef(rs, "k")}, true, nil)
	if err != nil {
		t.Fatal(err)
	}
	out, err := Collect(j)
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != 3*buildRows {
		t.Fatalf("got %d rows, want %d", out.Len(), 3*buildRows)
	}
	// Every (probe v, build v) pair exactly once.
	seen := map[[2]float64]bool{}
	for r := 0; r < out.Len(); r++ {
		key := [2]float64{out.Vecs[1].Float64s()[r], out.Vecs[3].Float64s()[r]}
		if seen[key] {
			t.Fatalf("duplicate pair %v", key)
		}
		seen[key] = true
	}
}

func TestHashJoinEmptyBuildSide(t *testing.T) {
	ls, lb := twoColBatch(10, func(i int) (int64, float64) { return int64(i), 0 })
	rs := types.NewSchema(
		types.Column{Name: "k", Type: types.Int64},
		types.Column{Name: "v", Type: types.Float64},
	)
	j, err := NewHashJoin(NewValues(ls, lb), NewBuild(NewValues(rs)),
		[]expr.Expr{colRef(ls, "k")}, []expr.Expr{expr.NewColRef(0, "k", types.Int64)}, true, nil)
	if err != nil {
		t.Fatal(err)
	}
	out, err := Collect(j)
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != 0 {
		t.Errorf("empty build side produced %d rows", out.Len())
	}
}

func TestHashJoinMixedKeyTypesPromote(t *testing.T) {
	// Int32 join key against Int64 key must promote and still match.
	ls := types.NewSchema(types.Column{Name: "k", Type: types.Int32})
	lb := vector.NewBatch(ls, 2)
	_ = lb.AppendRow(types.Int32Datum(1))
	_ = lb.AppendRow(types.Int32Datum(2))
	rs := types.NewSchema(types.Column{Name: "k", Type: types.Int64})
	rb := vector.NewBatch(rs, 2)
	_ = rb.AppendRow(types.Int64Datum(2))
	_ = rb.AppendRow(types.Int64Datum(3))
	j, err := NewHashJoin(NewValues(ls, lb), NewBuild(NewValues(rs, rb)),
		[]expr.Expr{expr.NewColRef(0, "k", types.Int32)},
		[]expr.Expr{expr.NewColRef(0, "k", types.Int64)}, true, nil)
	if err != nil {
		t.Fatal(err)
	}
	out, err := Collect(j)
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != 1 {
		t.Fatalf("mixed-type join matched %d rows, want 1", out.Len())
	}
}

// failingOp errors on Next, for error-propagation tests.
type failingOp struct {
	schema *types.Schema
}

func (f *failingOp) Schema() *types.Schema { return f.schema }
func (f *failingOp) Open() error           { return nil }
func (f *failingOp) Next() (*vector.Batch, error) {
	return nil, errors.New("synthetic failure")
}
func (f *failingOp) Close() error { return nil }

func TestExchangePropagatesChildErrors(t *testing.T) {
	schema, good := intBatch("x", 1, 2, 3)
	ex, err := NewExchange([]Operator{NewValues(schema, good), &failingOp{schema: schema}}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Collect(ex); err == nil {
		t.Error("exchange swallowed a child error")
	}
}

func TestExchangeCloseUnblocksProducers(t *testing.T) {
	// Close mid-stream must not deadlock producers blocked on the channel.
	var children []Operator
	for p := 0; p < 4; p++ {
		schema, b := twoColBatch(50*vector.Size, func(i int) (int64, float64) { return int64(i), 0 })
		children = append(children, NewValues(schema, b))
	}
	ex, err := NewExchange(children, 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := ex.Open(); err != nil {
		t.Fatal(err)
	}
	if _, err := ex.Next(); err != nil {
		t.Fatal(err)
	}
	if err := ex.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestFilterErrorPropagation(t *testing.T) {
	schema, _ := intBatch("x", 1)
	pred, _ := expr.NewBinOp(expr.OpGt, colRef(schema, "x"), expr.NewConst(types.Int64Datum(0)))
	f, err := NewFilter(&failingOp{schema: schema}, pred)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Collect(f); err == nil {
		t.Error("filter swallowed a child error")
	}
}

func TestSegmentedAggregatePeakGroupsBounded(t *testing.T) {
	// The memory point of Sec. 4.4: with an id-clustered stream, the
	// segmented aggregate holds only one segment's groups at a time.
	const ids, perID = 400, 8
	schema, b := twoColBatch(ids*perID, func(i int) (int64, float64) {
		return int64(i / perID), float64(i % perID)
	})
	// Group by (id, v): v has perID distinct values per id segment.
	agg, err := NewSegmentedAggregate(NewValues(schema, b),
		[]expr.Expr{colRef(schema, "k"), colRef(schema, "v")},
		[]string{"k", "v"},
		[]AggSpec{{Func: AggCountStar, Name: "c"}}, 0)
	if err != nil {
		t.Fatal(err)
	}
	out, err := Collect(agg)
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != ids*perID {
		t.Fatalf("got %d groups, want %d", out.Len(), ids*perID)
	}
	if agg.PeakGroups > perID {
		t.Errorf("segmented aggregate held %d groups at peak, want <= %d", agg.PeakGroups, perID)
	}

	hash, err := NewHashAggregate(NewValues(schema, b),
		[]expr.Expr{colRef(schema, "k"), colRef(schema, "v")},
		[]string{"k", "v"},
		[]AggSpec{{Func: AggCountStar, Name: "c"}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Collect(hash); err != nil {
		t.Fatal(err)
	}
	if hash.PeakGroups != ids*perID {
		t.Errorf("hash aggregate peak groups = %d, want %d", hash.PeakGroups, ids*perID)
	}
}
