package exec

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"time"

	"indbml/internal/engine/expr"
	"indbml/internal/engine/types"
	"indbml/internal/engine/vector"
)

// The tests in this file draw their inputs from a fresh seed on every run
// (CI runs them with -count=5) and compare the operators against naive
// row-at-a-time references. A failure logs the seed.

func seeded(t *testing.T) *rand.Rand {
	seed := time.Now().UnixNano()
	t.Cleanup(func() {
		if t.Failed() {
			t.Logf("seed %d", seed)
		}
	})
	return rand.New(rand.NewSource(seed))
}

var allTypes = []types.T{types.Int32, types.Int64, types.Float32, types.Float64, types.Bool, types.String}

// randDatum draws one of `domain` distinct values of type typ, or NULL with
// probability nullP.
func randDatum(rng *rand.Rand, typ types.T, domain int, nullP float64) types.Datum {
	if rng.Float64() < nullP {
		return types.NullDatum(typ)
	}
	v := rng.Intn(domain)
	switch typ {
	case types.Int32:
		return types.Int32Datum(int32(v - domain/2))
	case types.Int64:
		return types.Int64Datum(int64(v-domain/2) * (1 << 33))
	case types.Float32:
		return types.Float32Datum(float32(v) + 0.5)
	case types.Float64:
		return types.Float64Datum(float64(v) - 0.25)
	case types.Bool:
		return types.BoolDatum(v%2 == 0)
	default:
		return types.StringDatum(fmt.Sprintf("s%d", v))
	}
}

// keyEdges are the float values whose key equality differs from their bits
// (-0 = +0, and NaNs of different sign and payload are one key) or from
// float comparison (NaN = NaN). The second NaN has the bits a computed
// Inf-Inf has on amd64.
var keyEdges = []float64{math.NaN(), math.Float64frombits(0xFFF8000000000000), math.Copysign(0, -1), 0}

// randKeyDatum is randDatum for a group or prefix column: a REAL or DOUBLE
// one also draws the keyEdges.
func randKeyDatum(rng *rand.Rand, typ types.T, domain int, nullP float64) types.Datum {
	if (typ == types.Float32 || typ == types.Float64) && rng.Intn(8) == 0 {
		v := keyEdges[rng.Intn(len(keyEdges))]
		if typ == types.Float32 {
			return types.Float32Datum(float32(v))
		}
		return types.Float64Datum(v)
	}
	return randDatum(rng, typ, domain, nullP)
}

// refKey is the reference's group key: -0 keys as +0, and every NaN prints
// alike, so all NaNs are one group, as the group table keys them.
func refKey(row []types.Datum) string {
	key := append([]types.Datum(nil), row...)
	for i, d := range key {
		if !d.Null && d.F64 == 0 && (d.Type == types.Float32 || d.Type == types.Float64) {
			key[i].F64 = 0
		}
	}
	return rowString(key)
}

// clusterLess orders prefix values so that equal keys are adjacent, which
// is SegmentedAggregate's input contract: NaN, which Datum.Compare finds
// equal to every number, sorts after them all. The engine's own Sort uses
// Datum.Compare, so the planner never segments on a float column.
func clusterLess(a, b types.Datum) bool {
	aNaN := !a.Null && a.Type.IsNumeric() && math.IsNaN(a.F64)
	bNaN := !b.Null && b.Type.IsNumeric() && math.IsNaN(b.F64)
	if aNaN || bNaN {
		return !aNaN && bNaN
	}
	return a.Compare(b) < 0
}

// chop splits rows into batches of random sizes in [1, vector.Size], so
// groups, segments and probe rows straddle batch boundaries.
func chop(rng *rand.Rand, schema *types.Schema, rows [][]types.Datum) []*vector.Batch {
	var out []*vector.Batch
	for len(rows) > 0 {
		n := min(1+rng.Intn(vector.Size), len(rows))
		if rng.Intn(4) == 0 {
			n = min(1+rng.Intn(3), len(rows)) // tiny batches too
		}
		b := vector.NewBatch(schema, n)
		for _, r := range rows[:n] {
			if err := b.AppendRow(r...); err != nil {
				panic(err)
			}
		}
		out = append(out, b)
		rows = rows[n:]
	}
	return out
}

// cloneBatches deep-copies batches: operators may narrow or alias their
// input, and every operator under test must see the same data.
func cloneBatches(bs []*vector.Batch) []*vector.Batch {
	out := make([]*vector.Batch, len(bs))
	for i, b := range bs {
		out[i] = vector.NewBatch(b.Schema, b.Len())
		out[i].AppendBatch(b)
	}
	return out
}

func rowsOf(b *vector.Batch) []string {
	out := make([]string, b.Len())
	for r := range out {
		out[r] = rowString(b.Row(r))
	}
	return out
}

func rowString(row []types.Datum) string {
	parts := make([]string, len(row))
	for i, d := range row {
		if d.Null {
			parts[i] = "NULL"
		} else {
			parts[i] = fmt.Sprintf("%v:%s", d.Type, d.String())
		}
	}
	return strings.Join(parts, "|")
}

func compareRows(t *testing.T, what string, got, want []string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d rows, want %d", what, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: row %d = %s, want %s", what, i, got[i], want[i])
		}
	}
}

// --- aggregates ---

// refGroup is one group of the row-at-a-time reference.
type refGroup struct {
	key    []types.Datum
	count  []int64
	fsum   []float64
	isum   []int64
	minmax []types.Datum
}

// referenceAggregate groups rows[.][:ngroup] in first-seen order and folds
// the aggregates one row at a time, with the operators' accumulation rules:
// float64 (int64) running sums narrowed on output, NULL inputs skipped.
func referenceAggregate(rows [][]types.Datum, ngroup int, aggs []AggSpec, schema *types.Schema) []string {
	index := map[string]*refGroup{}
	var order []*refGroup
	for _, row := range rows {
		k := refKey(row[:ngroup])
		g := index[k]
		if g == nil {
			g = &refGroup{key: row[:ngroup], count: make([]int64, len(aggs)), fsum: make([]float64, len(aggs)),
				isum: make([]int64, len(aggs)), minmax: make([]types.Datum, len(aggs))}
			index[k] = g
			order = append(order, g)
		}
		for i, a := range aggs {
			if a.Func == AggCountStar {
				g.count[i]++
				continue
			}
			d := row[a.Arg.(*expr.ColRef).Idx]
			if d.Null {
				continue
			}
			switch a.Func {
			case AggSum, AggAvg:
				if d.Type.IsInteger() {
					g.isum[i] += d.Int()
				} else {
					g.fsum[i] += d.Float()
				}
			case AggMin:
				if g.count[i] == 0 || d.Compare(g.minmax[i]) < 0 {
					g.minmax[i] = d
				}
			case AggMax:
				if g.count[i] == 0 || d.Compare(g.minmax[i]) > 0 {
					g.minmax[i] = d
				}
			}
			g.count[i]++
		}
	}
	if ngroup == 0 && len(order) == 0 {
		order = append(order, &refGroup{count: make([]int64, len(aggs)), fsum: make([]float64, len(aggs)),
			isum: make([]int64, len(aggs)), minmax: make([]types.Datum, len(aggs))})
	}
	out := make([]string, len(order))
	for gi, g := range order {
		row := append([]types.Datum(nil), g.key...)
		for i, a := range aggs {
			t := schema.Col(ngroup + i).Type
			var d types.Datum
			switch {
			case a.Func == AggCount || a.Func == AggCountStar:
				d = types.Int64Datum(g.count[i])
			case g.count[i] == 0:
				d = types.NullDatum(t)
			case a.Func == AggAvg:
				total := g.fsum[i]
				if a.Arg.Type().IsInteger() {
					total = float64(g.isum[i])
				}
				d = types.Float64Datum(total / float64(g.count[i]))
			case a.Func == AggSum:
				switch t {
				case types.Int32:
					d = types.Int32Datum(int32(g.isum[i]))
				case types.Int64:
					d = types.Int64Datum(g.isum[i])
				case types.Float32:
					d = types.Float32Datum(float32(g.fsum[i]))
				default:
					d = types.Float64Datum(g.fsum[i])
				}
			default:
				d = g.minmax[i]
			}
			row = append(row, d)
		}
		out[gi] = rowString(row)
	}
	return out
}

func TestGeneratedAggregatesMatchReference(t *testing.T) {
	rng := seeded(t)
	for iter := 0; iter < 60; iter++ {
		ngroup := rng.Intn(5)
		var cols []types.Column
		for c := 0; c < ngroup; c++ {
			cols = append(cols, types.Column{Name: fmt.Sprintf("g%d", c), Type: allTypes[rng.Intn(len(allTypes))]})
		}
		// Argument columns: one per type, so every accumulator is reached.
		argBase := len(cols)
		for i, at := range allTypes {
			cols = append(cols, types.Column{Name: fmt.Sprintf("a%d", i), Type: at})
		}
		schema := types.NewSchema(cols...)

		var aggs []AggSpec
		for i, at := range allTypes {
			arg := expr.NewColRef(argBase+i, cols[argBase+i].Name, at)
			funcs := []AggFunc{AggCount, AggMin, AggMax}
			if at.IsNumeric() {
				funcs = append(funcs, AggSum, AggAvg)
			}
			for _, f := range funcs {
				if rng.Intn(2) == 0 {
					aggs = append(aggs, AggSpec{Func: f, Arg: arg, Name: fmt.Sprintf("f%d_%d", f, i)})
				}
			}
		}
		aggs = append(aggs, AggSpec{Func: AggCountStar, Name: "n"})

		// Row count and key cardinality vary from empty input and one-row
		// segments to more groups than fit in one output batch.
		n := []int{0, 1, 7, 900, 2500, 6000}[rng.Intn(6)]
		domain := []int{1, 2, 5, 40, 4000}[rng.Intn(5)]
		nullP := []float64{0, 0.05, 0.4}[rng.Intn(3)]
		rows := make([][]types.Datum, n)
		for r := range rows {
			row := make([]types.Datum, len(cols))
			for c, col := range cols {
				if c >= argBase {
					row[c] = randDatum(rng, col.Type, 50, nullP)
				} else {
					row[c] = randKeyDatum(rng, col.Type, domain, nullP)
				}
			}
			rows[r] = row
		}
		// Cluster the input on one group column so the segmented operator
		// applies; the sort is stable, so other columns keep their order.
		prefix := -1
		if ngroup > 0 {
			prefix = rng.Intn(ngroup)
			sort.SliceStable(rows, func(a, b int) bool { return clusterLess(rows[a][prefix], rows[b][prefix]) })
		}
		batches := chop(rng, schema, rows)

		groupBy := make([]expr.Expr, ngroup)
		names := make([]string, ngroup)
		for c := range groupBy {
			groupBy[c], names[c] = expr.NewColRef(c, cols[c].Name, cols[c].Type), cols[c].Name
		}
		hash, err := NewHashAggregate(NewValues(schema, cloneBatches(batches)...), groupBy, names, aggs)
		if err != nil {
			t.Fatal(err)
		}
		want := referenceAggregate(rows, ngroup, aggs, hash.Schema())
		what := fmt.Sprintf("iter %d: %d rows, %d group columns (prefix %d), domain %d, nulls %.2f", iter, n, ngroup, prefix, domain, nullP)

		out, err := Collect(hash)
		if err != nil {
			t.Fatal(err)
		}
		compareRows(t, "HashAggregate "+what, rowsOf(out), want)

		if prefix >= 0 {
			seg, err := NewSegmentedAggregate(NewValues(schema, cloneBatches(batches)...), groupBy, names, aggs, prefix)
			if err != nil {
				t.Fatal(err)
			}
			// Drain by hand to check the batch-size bound on the way.
			if err := seg.Open(); err != nil {
				t.Fatal(err)
			}
			var got []string
			for {
				b, err := seg.Next()
				if err != nil {
					t.Fatal(err)
				}
				if b == nil {
					break
				}
				if b.Len() == 0 || b.Len() > vector.Size {
					t.Fatalf("SegmentedAggregate %s: batch of %d rows", what, b.Len())
				}
				got = append(got, rowsOf(b)...)
			}
			seg.Close()
			compareRows(t, "SegmentedAggregate "+what, got, want)
		}
	}
}

// --- joins ---

// joinSide is one generated join input: key columns first, then a payload
// column numbering the rows.
type joinSide struct {
	schema *types.Schema
	rows   [][]types.Datum
	keys   []expr.Expr
}

func genJoinSide(rng *rand.Rand, keyTypes []types.T, n, domain int, nullP float64) joinSide {
	var cols []types.Column
	var keys []expr.Expr
	for i, kt := range keyTypes {
		cols = append(cols, types.Column{Name: fmt.Sprintf("k%d", i), Type: kt})
		keys = append(keys, expr.NewColRef(i, cols[i].Name, kt))
	}
	cols = append(cols, types.Column{Name: "row", Type: types.Int64})
	rows := make([][]types.Datum, n)
	for r := range rows {
		row := make([]types.Datum, len(cols))
		for i, kt := range keyTypes {
			// Numeric keys are small whole numbers in every type, so a key
			// equals its counterpart of another width after promotion.
			row[i] = types.NullDatum(kt)
			if rng.Float64() >= nullP {
				v := rng.Intn(domain)
				switch kt {
				case types.Int32:
					row[i] = types.Int32Datum(int32(v))
				case types.Int64:
					row[i] = types.Int64Datum(int64(v))
				case types.Float32:
					row[i] = types.Float32Datum(float32(v))
				case types.Float64:
					row[i] = types.Float64Datum(float64(v))
				case types.Bool:
					row[i] = types.BoolDatum(v%2 == 0)
				default:
					row[i] = types.StringDatum(fmt.Sprintf("s%d", v))
				}
			}
		}
		row[len(keyTypes)] = types.Int64Datum(int64(r))
		rows[r] = row
	}
	return joinSide{schema: types.NewSchema(cols...), rows: rows, keys: keys}
}

func keysEqual(l, r []types.Datum, nkeys int) bool {
	for i := 0; i < nkeys; i++ {
		if l[i].Null || r[i].Null {
			return false
		}
		if l[i].Type.IsNumeric() {
			if l[i].Float() != r[i].Float() {
				return false
			}
		} else if l[i].Compare(r[i]) != 0 {
			return false
		}
	}
	return true
}

func TestGeneratedHashJoinMatchesNestedLoop(t *testing.T) {
	rng := seeded(t)
	numeric := []types.T{types.Int32, types.Int64, types.Float32, types.Float64}
	for iter := 0; iter < 80; iter++ {
		nkeys := rng.Intn(3) // 0 = cross join
		lt, rt := make([]types.T, nkeys), make([]types.T, nkeys)
		for i := range lt {
			switch rng.Intn(4) {
			case 0:
				lt[i], rt[i] = types.String, types.String
			case 1:
				lt[i], rt[i] = types.Bool, types.Bool
			default: // widths mix through the Promote cast
				lt[i], rt[i] = numeric[rng.Intn(4)], numeric[rng.Intn(4)]
			}
		}
		nl := []int{0, 1, 30, 1500}[rng.Intn(4)]
		nr := []int{0, 1, 40, 1200}[rng.Intn(4)]
		domain := []int{1, 3, 50}[rng.Intn(3)]
		if nkeys == 0 || domain == 1 {
			// Every pair matches: keep the product small, but let one probe
			// row match more build rows than an output batch holds.
			nl, nr = min(nl, 30), []int{0, 1, 2*vector.Size + 5}[rng.Intn(3)]
			if rng.Intn(2) == 0 {
				nl, nr = nr, nl
			}
		}
		nullP := []float64{0, 0.2}[rng.Intn(2)]
		left := genJoinSide(rng, lt, nl, domain, nullP)
		right := genJoinSide(rng, rt, nr, domain, nullP)
		buildRight := rng.Intn(2) == 0

		// A random subset (and order) of the output columns.
		total := left.schema.Len() + right.schema.Len()
		var keep []int
		if rng.Intn(2) == 0 {
			keep = rng.Perm(total)[:1+rng.Intn(total)]
		}

		// Nested loop in the join's emission order: probe rows outermost.
		var want []string
		emit := func(l, r []types.Datum) {
			all := append(append([]types.Datum(nil), l...), r...)
			row := all
			if keep != nil {
				row = make([]types.Datum, len(keep))
				for i, k := range keep {
					row[i] = all[k]
				}
			}
			want = append(want, rowString(row))
		}
		if buildRight {
			for _, l := range left.rows {
				for _, r := range right.rows {
					if keysEqual(l, r, nkeys) {
						emit(l, r)
					}
				}
			}
		} else {
			for _, r := range right.rows {
				for _, l := range left.rows {
					if keysEqual(l, r, nkeys) {
						emit(l, r)
					}
				}
			}
		}

		j, err := leftRightJoin(
			NewValues(left.schema, chop(rng, left.schema, left.rows)...),
			NewValues(right.schema, chop(rng, right.schema, right.rows)...),
			left.keys, right.keys, buildRight, keep)
		if err != nil {
			t.Fatal(err)
		}
		out, err := Collect(j)
		if err != nil {
			t.Fatal(err)
		}
		what := fmt.Sprintf("iter %d: %v x %v keys, %d x %d rows, domain %d, nulls %.1f, buildRight %v, keep %v",
			iter, lt, rt, nl, nr, domain, nullP, buildRight, keep)
		compareRows(t, what, rowsOf(out), want)
	}
}

// TestNegativeZeroKeys pins the one place packed keys deviate from the bit
// pattern: -0 and +0 are equal, so they join and group together.
func TestNegativeZeroKeys(t *testing.T) {
	negZero := float32(0)
	negZero = -negZero
	schema := types.NewSchema(types.Column{Name: "k", Type: types.Float32})
	mk := func(vals ...float32) *vector.Batch {
		b := vector.NewBatch(schema, len(vals))
		for _, v := range vals {
			_ = b.AppendRow(types.Float32Datum(v))
		}
		return b
	}
	key := []expr.Expr{expr.NewColRef(0, "k", types.Float32)}
	j, err := NewHashJoin(NewValues(schema, mk(0)), NewBuild(NewValues(schema, mk(negZero))), key, key, true, nil)
	if err != nil {
		t.Fatal(err)
	}
	if out, err := Collect(j); err != nil || out.Len() != 1 {
		t.Errorf("0 = -0 joined %d rows (err %v), want 1", out.Len(), err)
	}
	agg, err := NewHashAggregate(NewValues(schema, mk(0, negZero, 1)), key, []string{"k"}, []AggSpec{{Func: AggCountStar, Name: "n"}})
	if err != nil {
		t.Fatal(err)
	}
	if out, err := Collect(agg); err != nil || out.Len() != 2 {
		t.Errorf("GROUP BY over 0, -0, 1 made %d groups (err %v), want 2", out.Len(), err)
	}
}
