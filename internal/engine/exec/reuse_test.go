package exec

import (
	"fmt"
	"sort"
	"testing"

	"indbml/internal/engine/expr"
	"indbml/internal/engine/types"
	"indbml/internal/engine/vector"
)

// recycler is the harshest child the batch-ownership contract allows: every
// Next returns the same batch object, and before refilling it with the next
// source batch it overwrites what the previous call returned. A consumer
// that keeps a reference instead of a copy sees the scribble.
type recycler struct {
	schema *types.Schema
	src    []*vector.Batch
	pos    int
	buf    *vector.Batch
}

func (r *recycler) Schema() *types.Schema { return r.schema }
func (r *recycler) Open() error {
	r.pos, r.buf = 0, vector.NewBatch(r.schema, vector.Size)
	return nil
}
func (r *recycler) Close() error { return nil }

func (r *recycler) Next() (*vector.Batch, error) {
	for _, v := range r.buf.Vecs { // scribble over the batch handed out last time
		switch v.Type() {
		case types.Int64:
			for i := range v.Int64s() {
				v.Int64s()[i] = -999
			}
		case types.String:
			for i := range v.Strings() {
				v.Strings()[i] = "scribbled"
			}
		}
	}
	if r.pos == len(r.src) {
		return nil, nil
	}
	r.buf.Reset()
	r.buf.AppendBatch(r.src[r.pos])
	r.pos++
	return r.buf, nil
}

// reuseInput is 2500 rows of (k BIGINT, s VARCHAR) in three batches.
func reuseInput() (*types.Schema, []*vector.Batch, []string) {
	schema := types.NewSchema(types.Column{Name: "k", Type: types.Int64}, types.Column{Name: "s", Type: types.String})
	var batches []*vector.Batch
	var rows []string
	for i := 0; i < 2500; i++ {
		if i%vector.Size == 0 {
			batches = append(batches, vector.NewBatch(schema, vector.Size))
		}
		row := []types.Datum{types.Int64Datum(int64((i * 7919) % 2500)), types.StringDatum(fmt.Sprintf("r%d", i))}
		_ = batches[len(batches)-1].AppendRow(row...)
		rows = append(rows, rowString(row))
	}
	return schema, batches, rows
}

// TestRetainingConsumersCopy runs every consumer that keeps rows past its
// child's next Next call over a recycler and checks nothing it kept changed.
func TestRetainingConsumersCopy(t *testing.T) {
	schema, batches, rows := reuseInput()
	child := func() Operator { return &recycler{schema: schema, src: batches} }
	k := expr.NewColRef(0, "k", types.Int64)
	sorted := append([]string(nil), rows...)
	sort.SliceStable(sorted, func(a, b int) bool {
		var ka, kb int64
		fmt.Sscanf(sorted[a], "BIGINT:%d", &ka)
		fmt.Sscanf(sorted[b], "BIGINT:%d", &kb)
		return ka < kb
	})

	out, err := Collect(child())
	if err != nil {
		t.Fatal(err)
	}
	compareRows(t, "Collect", rowsOf(out), rows)

	out, err = Collect(NewSort(child(), []SortKey{{E: k}}))
	if err != nil {
		t.Fatal(err)
	}
	compareRows(t, "Sort", rowsOf(out), sorted)

	out, err = Collect(NewTopN(child(), []SortKey{{E: k}}, 1500))
	if err != nil {
		t.Fatal(err)
	}
	compareRows(t, "TopN", rowsOf(out), sorted[:1500])

	// The join's build side is held for the whole probe phase; its probe
	// side is held across the Next calls that emit one probe batch.
	j, err := NewHashJoin(child(), NewBuild(child()), []expr.Expr{k}, []expr.Expr{k}, true, nil)
	if err != nil {
		t.Fatal(err)
	}
	out, err = Collect(j)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]string, len(rows)) // k is a permutation: row i joins itself
	for i, r := range rows {
		want[i] = r + "|" + r
	}
	compareRows(t, "HashJoin", rowsOf(out), want)

	// The groupjoin holds its build side too, and the prefix of the segment
	// still open when it asks its probe for the next batch. Every probe row
	// is a segment of one group: its key's build row.
	gj, err := NewGroupJoin(child(), NewBuild(child()), []expr.Expr{k}, []expr.Expr{k}, []int{0, 3}, []string{"k", "s"}, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	out, err = Collect(gj)
	if err != nil {
		t.Fatal(err)
	}
	compareRows(t, "GroupJoin", rowsOf(out), rows)

	ex, err := NewExchange([]Operator{child(), child()}, 2)
	if err != nil {
		t.Fatal(err)
	}
	out, err = Collect(ex)
	if err != nil {
		t.Fatal(err)
	}
	got := rowsOf(out)
	sort.Strings(got)
	twice := append(append([]string(nil), rows...), rows...)
	sort.Strings(twice)
	compareRows(t, "Exchange", got, twice)
}

// cycler hands out its batches round-robin forever without allocating: the
// steady-state input of the allocation guards.
type cycler struct {
	schema *types.Schema
	src    []*vector.Batch
	pos    int
}

func (c *cycler) Schema() *types.Schema { return c.schema }
func (c *cycler) Open() error           { return nil }
func (c *cycler) Close() error          { return nil }
func (c *cycler) Next() (*vector.Batch, error) {
	b := c.src[c.pos%len(c.src)]
	c.pos++
	return b, nil
}

// TestSteadyStateNextDoesNotAllocate guards the operator-owned buffers and
// the evaluator-owned expression results: once warm, a Next of the join, the
// projections, the filter, the segmented aggregate and the groupjoin costs no
// allocation,
// whether they read bare columns or compute expressions.
func TestSteadyStateNextDoesNotAllocate(t *testing.T) {
	schema := types.NewSchema(
		types.Column{Name: "id", Type: types.Int64},
		types.Column{Name: "v", Type: types.Float32},
		types.Column{Name: "w", Type: types.Float32},
	)
	var batches []*vector.Batch
	for id := 0; id < 4; id++ { // one segment per batch, 32 groups each
		b := vector.NewBatch(schema, vector.Size)
		for i := 0; i < vector.Size; i++ {
			_ = b.AppendRow(types.Int64Datum(int64(id)), types.Float32Datum(float32(i%32)), types.Float32Datum(float32(i%7)-3))
		}
		batches = append(batches, b)
	}
	id := expr.NewColRef(0, "id", types.Int64)
	v, w := expr.NewColRef(1, "v", types.Float32), expr.NewColRef(2, "w", types.Float32)
	input := func() Operator { return &cycler{schema: schema, src: batches} }
	must := func(e expr.Expr, err error) expr.Expr {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	vw := must(expr.NewBinOp(expr.OpMul, v, w))
	relu := must(expr.NewFunc("RELU", []expr.Expr{must(expr.NewBinOp(expr.OpAdd, vw, v))}))
	caseE := must(expr.NewCase([]expr.When{
		{Cond: must(expr.NewBinOp(expr.OpGt, v, expr.NewConst(types.Float32Datum(16)))), Then: w},
		{Cond: must(expr.NewBinOp(expr.OpEq, id, expr.NewConst(types.Int64Datum(2)))), Then: id},
	}, expr.NewConst(types.Float32Datum(0))))
	cast := expr.NewCast(v, types.Int32)

	ops := map[string]func() (Operator, error){
		"HashJoin": func() (Operator, error) {
			_, build := intBatch("id", 0, 1, 1, 2, 3, 3, 3)
			return NewHashJoin(input(), NewBuild(NewValues(build.Schema, build)), []expr.Expr{id}, []expr.Expr{id}, true, []int{1, 3})
		},
		"Project": func() (Operator, error) {
			return NewProject(input(), []expr.Expr{v, id, v}, []string{"v", "id", "v2"})
		},
		"Project RELU(v * w + v)": func() (Operator, error) {
			return NewProject(input(), []expr.Expr{relu}, []string{"r"})
		},
		"Project CASE": func() (Operator, error) {
			return NewProject(input(), []expr.Expr{caseE}, []string{"c"})
		},
		"Project CAST": func() (Operator, error) {
			return NewProject(input(), []expr.Expr{cast}, []string{"c"})
		},
		"Filter id = 2": func() (Operator, error) {
			return NewFilter(input(), must(expr.NewBinOp(expr.OpEq, id, expr.NewConst(types.Int32Datum(2)))))
		},
		"SegmentedAggregate": func() (Operator, error) {
			return NewSegmentedAggregate(input(), []expr.Expr{id, v}, []string{"id", "v"},
				[]AggSpec{{Func: AggSum, Arg: v, Name: "s"}, {Func: AggCountStar, Name: "n"}, {Func: AggMax, Arg: v, Name: "m"}}, 0)
		},
		"SegmentedAggregate SUM(v * w)": func() (Operator, error) {
			return NewSegmentedAggregate(input(), []expr.Expr{id, v}, []string{"id", "v"},
				[]AggSpec{{Func: AggSum, Arg: vw, Name: "s"}}, 0)
		},
		"GroupJoin": func() (Operator, error) {
			// Per probe row 8 build rows of the id, in 5 groups of g.
			bs := types.NewSchema(types.Column{Name: "k", Type: types.Int64}, types.Column{Name: "g", Type: types.Int32},
				types.Column{Name: "b", Type: types.Float32})
			build := vector.NewBatch(bs, 32)
			for i := 0; i < 32; i++ {
				_ = build.AppendRow(types.Int64Datum(int64(i%4)), types.Int32Datum(int32(i%5)), types.Float32Datum(float32(i)/4))
			}
			return NewGroupJoin(input(), NewBuild(NewValues(bs, build)), []expr.Expr{id}, []expr.Expr{expr.NewColRef(0, "k", types.Int64)},
				[]int{0, 4}, []string{"id", "g"}, 0, []GroupJoinSum{{Probe: 1, Build: 2, Name: "s"}, {Probe: 2, Build: 2, Name: "t"}})
		},
	}
	for name, build := range ops {
		op, err := build()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := op.Open(); err != nil {
			t.Fatal(err)
		}
		next := func() {
			if b, err := op.Next(); err != nil || b == nil || b.Len() == 0 {
				t.Fatalf("%s: Next = %v, %v", name, b, err)
			}
		}
		for i := 0; i < 16; i++ {
			next() // warm the buffers up to their steady size
		}
		if allocs := testing.AllocsPerRun(50, next); allocs != 0 {
			t.Errorf("%s.Next allocates %.1f times per batch in steady state, want 0", name, allocs)
		}
		op.Close()
	}
}
