package exec

import (
	"math"
	"slices"
	"testing"

	"indbml/internal/engine/expr"
	"indbml/internal/engine/types"
	"indbml/internal/engine/vector"
)

// int32Key builds one INT key column; a nil entry is NULL over the value
// bits of nullVal, so a NULL row whose stale value is some group's value
// checks that NULLs are keyed by their NULL bit alone.
func int32Key(nullVal int32, vals ...any) *vector.Vector {
	v := vector.New(types.Int32, len(vals))
	for i, x := range vals {
		if x == nil {
			v.AppendDatum(types.Int32Datum(nullVal))
			v.SetNull(i)
			continue
		}
		v.AppendDatum(types.Int32Datum(int32(x.(int))))
	}
	return v
}

// resolveAll stages key and resolves all its rows.
func resolveAll(t *groupTable, key *vector.Vector, insert bool) []int32 {
	ids := make([]int32, key.Len())
	t.stage([]*vector.Vector{key}, key.Len())
	t.resolve(0, key.Len(), ids, insert)
	return ids
}

func ints(n int) []any {
	out := make([]any, n)
	for i := range out {
		out[i] = i
	}
	return out
}

// TestResolveRuns covers the run compare in resolve: a hit run broken in its
// middle, a run that wraps from the last group to group 0, NULL-keyed groups
// next to zero values, and NULL rows inside a join probe's would-be run.
func TestResolveRuns(t *testing.T) {
	cases := []struct {
		name     string
		skipNull bool
		build    *vector.Vector // inserted first
		key      *vector.Vector
		insert   bool
		want     []int32
	}{
		{"mismatch mid-run, probe", false, int32Key(0, ints(8)...),
			int32Key(0, 0, 1, 2, 9, 4, 5, 6), false, []int32{0, 1, 2, -1, 4, 5, 6}},
		{"mismatch mid-run, insert", false, int32Key(0, ints(8)...),
			int32Key(0, 0, 1, 2, 9, 3, 4, 9, 5), true, []int32{0, 1, 2, 8, 3, 4, 8, 5}},
		{"run wraps to group 0", false, int32Key(0, ints(4)...),
			int32Key(0, 2, 3, 0, 1, 2, 3, 0, 1), false, []int32{2, 3, 0, 1, 2, 3, 0, 1}},
		{"NULL group vs zero value", false, int32Key(0, nil),
			int32Key(0, nil, 0, nil, 0, 0), true, []int32{0, 1, 0, 1, 1}},
		{"skipNull row inside a run", true, int32Key(0, ints(4)...),
			int32Key(2, 0, 1, nil, 3, nil, 0, 1), false, []int32{0, 1, -1, 3, -1, 0, 1}},
	}
	for _, c := range cases {
		tab := newGroupTable([]types.T{types.Int32}, c.skipNull)
		resolveAll(tab, c.build, true)
		if got := resolveAll(tab, c.key, c.insert); !slices.Equal(got, c.want) {
			t.Errorf("%s: ids %v, want %v", c.name, got, c.want)
		}
	}
}

func float64Key(vals ...any) *vector.Vector {
	v := vector.New(types.Float64, len(vals))
	for _, x := range vals {
		if x == nil {
			v.AppendDatum(types.NullDatum(types.Float64))
			continue
		}
		v.AppendDatum(types.Float64Datum(x.(float64)))
	}
	return v
}

// negNaN has the bits a computed Inf-Inf has on amd64; math.NaN() differs
// from it in sign and payload.
var negNaN = math.Float64frombits(0xFFF8000000000000)

// TestNaNPayloadsAreOneKey: the group table keys every NaN alike and -0 as
// +0, in packed mode and in byte mode (a VARCHAR column in the key).
func TestNaNPayloadsAreOneKey(t *testing.T) {
	x := float64Key(math.NaN(), negNaN, math.Copysign(0, -1), 0.0, negNaN)
	want := []int32{0, 0, 1, 1, 0}
	if got := resolveAll(newGroupTable([]types.T{types.Float64}, false), x, true); !slices.Equal(got, want) {
		t.Errorf("packed: ids %v, want %v", got, want)
	}
	s := vector.New(types.String, x.Len())
	for range x.Len() {
		s.AppendDatum(types.StringDatum("a"))
	}
	tab := newGroupTable([]types.T{types.Float64, types.String}, false)
	ids := make([]int32, x.Len())
	tab.stage([]*vector.Vector{x, s}, x.Len())
	tab.resolve(0, x.Len(), ids, true)
	if !slices.Equal(ids, want) {
		t.Errorf("byte mode: ids %v, want %v", ids, want)
	}
}

// segmentByPrefix runs a segmented COUNT(*) grouped on the prefix column
// alone over the given batches.
func segmentByPrefix(t *testing.T, batches ...*vector.Batch) ([]string, int) {
	t.Helper()
	schema := batches[0].Schema
	k := expr.NewColRef(0, "k", schema.Col(0).Type)
	seg, err := NewSegmentedAggregate(NewValues(schema, batches...), []expr.Expr{k}, []string{"k"},
		[]AggSpec{{Func: AggCountStar, Name: "n"}}, 0)
	if err != nil {
		t.Fatal(err)
	}
	out, err := Collect(seg)
	if err != nil {
		t.Fatal(err)
	}
	return rowsOf(out), seg.PeakGroups
}

func keyBatch(v *vector.Vector) *vector.Batch {
	b := vector.NewBatch(types.NewSchema(types.Column{Name: "k", Type: v.Type()}), v.Len())
	b.Vecs[0] = v
	b.SetLen(v.Len())
	return b
}

// TestSegmentBoundaryIsKeyEquality: a segment closes where the prefix's key
// changes, and the key is the group table's — NaN is not equal to 1, -0 is
// +0, NULL is one value apart from the rest. Datum.Compare, which finds NaN
// equal to everything, once kept 1 and NaN in one segment.
func TestSegmentBoundaryIsKeyEquality(t *testing.T) {
	nan, negZero := math.NaN(), math.Copysign(0, -1)
	got, peak := segmentByPrefix(t, keyBatch(float64Key(1.0, nan, 2.0, 2.0)))
	want := []string{"DOUBLE:1|BIGINT:1", "DOUBLE:NaN|BIGINT:1", "DOUBLE:2|BIGINT:2"}
	if !slices.Equal(got, want) || peak != 1 {
		t.Errorf("prefix [1 NaN 2 2]: %v with PeakGroups %d, want %v with 1", got, peak, want)
	}
	got, peak = segmentByPrefix(t, keyBatch(float64Key(nil, nil, negZero, 0.0, 1.0, nan)),
		keyBatch(float64Key(nan, nil)))
	want = []string{"NULL|BIGINT:2", "DOUBLE:-0|BIGINT:2", "DOUBLE:1|BIGINT:1", "DOUBLE:NaN|BIGINT:2", "NULL|BIGINT:1"}
	if !slices.Equal(got, want) || peak != 1 {
		t.Errorf("prefix [NULL NULL -0 0 1 NaN | NaN NULL]: %v with PeakGroups %d, want %v with 1", got, peak, want)
	}
	got, peak = segmentByPrefix(t, keyBatch(float64Key(nan, negNaN, nan, 1.0)))
	want = []string{"DOUBLE:NaN|BIGINT:3", "DOUBLE:1|BIGINT:1"}
	if !slices.Equal(got, want) || peak != 1 {
		t.Errorf("prefix [NaN -NaN NaN 1]: %v with PeakGroups %d, want %v with 1", got, peak, want)
	}
}

// TestSegmentedAggregatePrefixOnly: grouped on its prefix alone, the table's
// key has no columns, so every segment is one group.
func TestSegmentedAggregatePrefixOnly(t *testing.T) {
	_, b1 := intBatch("k", 1, 1, 2)
	_, b2 := intBatch("k", 2, 2, 3)
	got, peak := segmentByPrefix(t, b1, b2)
	want := []string{"BIGINT:1|BIGINT:2", "BIGINT:2|BIGINT:3", "BIGINT:3|BIGINT:1"}
	if !slices.Equal(got, want) || peak != 1 {
		t.Errorf("%v with PeakGroups %d, want %v with 1", got, peak, want)
	}
}

// BenchmarkSegmentedAggregate is the aggregation of one ML-To-SQL layer
// (GROUP BY id, layer, node, b_i with SUM of a REAL product): per tuple id a
// segment in which 32 node keys recur 32 times in first-seen order, as a
// join of each input node with the layer's edges emits them. ns/row is the
// group table's and the accumulator's cost per aggregated row.
func BenchmarkSegmentedAggregate(b *testing.B) {
	const segments, nodes, repeats = 64, 32, 32
	schema := types.NewSchema(
		types.Column{Name: "id", Type: types.Int64},
		types.Column{Name: "layer", Type: types.Int32},
		types.Column{Name: "node", Type: types.Int32},
		types.Column{Name: "b_i", Type: types.Float32},
		types.Column{Name: "x", Type: types.Float32},
	)
	var batches []*vector.Batch
	batch := vector.NewBatch(schema, vector.Size)
	for id := 0; id < segments; id++ {
		for rep := 0; rep < repeats; rep++ {
			for node := 0; node < nodes; node++ {
				_ = batch.AppendRow(types.Int64Datum(int64(id)), types.Int32Datum(1), types.Int32Datum(int32(node)),
					types.Float32Datum(float32(node)/8-2), types.Float32Datum(float32(rep-node)/16))
				if batch.Len() == vector.Size {
					batches = append(batches, batch)
					batch = vector.NewBatch(schema, vector.Size)
				}
			}
		}
	}
	groupBy := make([]expr.Expr, 4)
	names := make([]string, 4)
	for c := range groupBy {
		col := schema.Col(c)
		groupBy[c], names[c] = expr.NewColRef(c, col.Name, col.Type), col.Name
	}
	sum := AggSpec{Func: AggSum, Arg: expr.NewColRef(4, "x", types.Float32), Name: "s"}
	agg, err := NewSegmentedAggregate(NewValues(schema, batches...), groupBy, names, []AggSpec{sum}, 0)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := agg.Open(); err != nil {
			b.Fatal(err)
		}
		groups := 0
		for {
			out, err := agg.Next()
			if err != nil {
				b.Fatal(err)
			}
			if out == nil {
				break
			}
			groups += out.Len()
		}
		agg.Close()
		if groups != segments*nodes {
			b.Fatalf("%d groups, want %d", groups, segments*nodes)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*segments*nodes*repeats), "ns/row")
}

// BenchmarkGroupJoin is the join and aggregation of one ML-To-SQL layer in
// one operator, with BenchmarkSegmentedAggregate's key shape: per tuple id 32
// input nodes, each joining the 32 edges (node_in, layer, node, b_i, w_i) to
// the layer's nodes. ns/pair is the cost per joined pair, the row the
// aggregate of the unfused plan reads.
func BenchmarkGroupJoin(b *testing.B) {
	const segments, nodes, inputs = 64, 32, 32
	probeSchema := types.NewSchema(
		types.Column{Name: "id", Type: types.Int64},
		types.Column{Name: "node", Type: types.Int32},
		types.Column{Name: "x", Type: types.Float32},
	)
	var probe []*vector.Batch
	batch := vector.NewBatch(probeSchema, vector.Size)
	for id := 0; id < segments; id++ {
		for in := 0; in < inputs; in++ {
			_ = batch.AppendRow(types.Int64Datum(int64(id)), types.Int32Datum(int32(in)), types.Float32Datum(float32(id-in)/16))
			if batch.Len() == vector.Size {
				probe = append(probe, batch)
				batch = vector.NewBatch(probeSchema, vector.Size)
			}
		}
	}
	buildSchema := types.NewSchema(
		types.Column{Name: "node_in", Type: types.Int32},
		types.Column{Name: "layer", Type: types.Int32},
		types.Column{Name: "node", Type: types.Int32},
		types.Column{Name: "b_i", Type: types.Float32},
		types.Column{Name: "w_i", Type: types.Float32},
	)
	build := vector.NewBatch(buildSchema, inputs*nodes)
	for in := 0; in < inputs; in++ {
		for node := 0; node < nodes; node++ {
			_ = build.AppendRow(types.Int32Datum(int32(in)), types.Int32Datum(1), types.Int32Datum(int32(node)),
				types.Float32Datum(float32(node)/8-2), types.Float32Datum(float32(in-node)/32))
		}
	}
	gj, err := NewGroupJoin(NewValues(probeSchema, probe...), NewBuild(NewValues(buildSchema, build)),
		[]expr.Expr{expr.NewColRef(1, "node", types.Int32)}, []expr.Expr{expr.NewColRef(0, "node_in", types.Int32)},
		[]int{0, 4, 5, 6}, []string{"id", "layer", "node", "b_i"}, 0, []GroupJoinSum{{Probe: 2, Build: 4, Name: "s"}})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := gj.Open(); err != nil {
			b.Fatal(err)
		}
		groups := 0
		for {
			out, err := gj.Next()
			if err != nil {
				b.Fatal(err)
			}
			if out == nil {
				break
			}
			groups += out.Len()
		}
		gj.Close()
		if groups != segments*nodes {
			b.Fatalf("%d groups, want %d", groups, segments*nodes)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*segments*nodes*inputs), "ns/pair")
}
