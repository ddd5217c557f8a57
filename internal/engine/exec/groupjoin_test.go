package exec

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"indbml/internal/engine/expr"
	"indbml/internal/engine/types"
	"indbml/internal/engine/vector"
)

// bitRows renders a batch with every float as its bits, so −0 and +0, and
// NaNs of different payloads, compare unequal — except that a NaN in a
// column from sums on renders as NaN. Which payload a sum or product of two
// NaNs carries, IEEE 754 leaves to the implementation; on amd64 it is the
// first operand's, and Go's compiler orders the operands of a float add or
// multiply as it likes, the same expression differently in two loops.
func bitRows(b *vector.Batch, sums int) []string {
	out := make([]string, b.Len())
	for r := range out {
		parts := make([]string, len(b.Vecs))
		for c, v := range b.Vecs {
			switch {
			case v.NullAt(r):
				parts[c] = "NULL"
			case c >= sums && v.Type().IsNumeric() && math.IsNaN(v.AsFloat64(r)):
				parts[c] = "NaN"
			case v.Type() == types.Float32:
				parts[c] = fmt.Sprintf("REAL:%#x", math.Float32bits(v.Float32s()[r]))
			case v.Type() == types.Float64:
				parts[c] = fmt.Sprintf("DOUBLE:%#x", math.Float64bits(v.Float64s()[r]))
			default:
				parts[c] = rowString([]types.Datum{v.Datum(r)})
			}
		}
		out[r] = strings.Join(parts, "|")
	}
	return out
}

// randWhole draws a whole number below domain in type typ (join keys must
// stay equal across the key cast), or NULL with probability nullP.
func randWhole(rng *rand.Rand, typ types.T, domain int, nullP float64) types.Datum {
	if rng.Float64() < nullP {
		return types.NullDatum(typ)
	}
	v := rng.Intn(domain)
	switch typ {
	case types.Int32:
		return types.Int32Datum(int32(v))
	case types.Int64:
		return types.Int64Datum(int64(v))
	case types.Float32:
		return types.Float32Datum(float32(v))
	}
	return types.Float64Datum(float64(v))
}

// randOperand draws a factor of a summed product: mostly values whose
// products round, sometimes a key edge (NaN payloads, −0, +0).
func randOperand(rng *rand.Rand, typ types.T, nullP float64) types.Datum {
	if rng.Float64() < nullP {
		return types.NullDatum(typ)
	}
	v := float64(rng.Intn(2001)-1000) / 37
	if rng.Intn(40) == 0 {
		v = keyEdges[rng.Intn(len(keyEdges))]
	}
	if typ == types.Float32 {
		return types.Float32Datum(float32(v))
	}
	return types.Float64Datum(v)
}

// TestGeneratedGroupJoinMatchesJoinThenAggregate compares GroupJoin with the
// pair it replaces, HashJoin → SegmentedAggregate, bit for bit, over random
// probe and build sides: NULLs in every key, prefix, group and operand
// column, NaN payloads and −0/+0 in float group columns and operands,
// duplicate build keys whose chains share group ordinals, empty build sides,
// unmatched probe rows, segments that span probe batches or hold more groups
// than one output batch, one or two sums, integer and float prefixes.
func TestGeneratedGroupJoinMatchesJoinThenAggregate(t *testing.T) {
	rng := seeded(t)
	floats := []types.T{types.Float32, types.Float64}
	for iter := 0; iter < 60; iter++ {
		prefixT := []types.T{types.Int64, types.Int32, types.Float64, types.Float32}[rng.Intn(4)]
		probeKeyT := []types.T{types.Int32, types.Int64, types.Float32}[rng.Intn(3)]
		buildKeyT := []types.T{types.Int32, types.Int64, types.Float64}[rng.Intn(3)]
		sumTs := make([]types.T, 1+rng.Intn(2))
		for i := range sumTs {
			sumTs[i] = floats[rng.Intn(2)]
		}
		groupTs := make([]types.T, rng.Intn(3))
		for i := range groupTs {
			groupTs[i] = []types.T{types.Int32, types.Float32, types.Float64, types.String}[rng.Intn(4)]
		}
		nbuild := []int{0, 1, 40, 600}[rng.Intn(4)]
		keyDomain := []int{1, 3, 20}[rng.Intn(3)]
		groupDomain := []int{1, 2, 8, 200}[rng.Intn(4)]
		if iter%6 == 0 {
			// One chain of more distinct groups than an output batch holds.
			nbuild, keyDomain, groupDomain = 2*vector.Size+100, 1, 1<<20
			groupTs = append(groupTs, types.Int64)
		}
		nullP := []float64{0, 0.1}[rng.Intn(2)]

		// Probe: prefix, key, one operand per sum. Build: key, group
		// columns, one operand per sum.
		probeCols := []types.Column{{Name: "id", Type: prefixT}, {Name: "node", Type: probeKeyT}}
		buildCols := []types.Column{{Name: "node_in", Type: buildKeyT}}
		for i, gt := range groupTs {
			buildCols = append(buildCols, types.Column{Name: fmt.Sprintf("g%d", i), Type: gt})
		}
		for i, st := range sumTs {
			probeCols = append(probeCols, types.Column{Name: fmt.Sprintf("x%d", i), Type: st})
			buildCols = append(buildCols, types.Column{Name: fmt.Sprintf("w%d", i), Type: st})
		}
		probeSchema, buildSchema := types.NewSchema(probeCols...), types.NewSchema(buildCols...)

		buildRows := make([][]types.Datum, nbuild)
		for r := range buildRows {
			row := []types.Datum{randWhole(rng, buildKeyT, keyDomain, nullP)}
			for _, gt := range groupTs {
				row = append(row, randKeyDatum(rng, gt, groupDomain, nullP))
			}
			for _, st := range sumTs {
				row = append(row, randOperand(rng, st, nullP))
			}
			buildRows[r] = row
		}
		// About 10^5 joined pairs at most, whatever the chain length.
		maxProbe := max(8, 100000*keyDomain/(1+nbuild))
		var probeRows [][]types.Datum
		for seg := rng.Intn(30); seg >= 0 && len(probeRows) < maxProbe; seg-- {
			prefix := randKeyDatum(rng, prefixT, 12, nullP)
			for n := []int{1, 4, 40, 1500}[rng.Intn(4)]; n > 0; n-- {
				// Keys past the build's domain match nothing.
				row := []types.Datum{prefix, randWhole(rng, probeKeyT, keyDomain+2, nullP)}
				for _, st := range sumTs {
					row = append(row, randOperand(rng, st, nullP))
				}
				probeRows = append(probeRows, row)
			}
		}
		probeBatches, buildBatches := chop(rng, probeSchema, probeRows), chop(rng, buildSchema, buildRows)

		// The group columns with the prefix at a random position, and
		// SUM(x * w) with the factors in either order.
		np := probeSchema.Len()
		pi := rng.Intn(len(groupTs) + 1)
		var groupBy []int
		for i := range groupTs {
			groupBy = append(groupBy, np+1+i)
		}
		groupBy = append(groupBy[:pi], append([]int{0}, groupBy[pi:]...)...)
		names := make([]string, len(groupBy))
		groupExprs := make([]expr.Expr, len(groupBy))
		both := probeSchema.Concat(buildSchema)
		for i, c := range groupBy {
			names[i] = both.Col(c).Name
			groupExprs[i] = expr.NewColRef(c, names[i], both.Col(c).Type)
		}
		sums := make([]GroupJoinSum, len(sumTs))
		aggs := make([]AggSpec, len(sumTs))
		for i, st := range sumTs {
			sums[i] = GroupJoinSum{Probe: 2 + i, Build: 1 + len(groupTs) + i, Name: fmt.Sprintf("s%d", i)}
			x := expr.NewColRef(sums[i].Probe, probeCols[sums[i].Probe].Name, st)
			w := expr.NewColRef(np+sums[i].Build, buildCols[sums[i].Build].Name, st)
			if rng.Intn(2) == 0 {
				x, w = w, x
			}
			prod, err := expr.NewBinOp(expr.OpMul, x, w)
			if err != nil {
				t.Fatal(err)
			}
			aggs[i] = AggSpec{Func: AggSum, Arg: prod, Name: sums[i].Name}
		}
		keys := func() ([]expr.Expr, []expr.Expr) {
			return []expr.Expr{expr.NewColRef(1, "node", probeKeyT)}, []expr.Expr{expr.NewColRef(0, "node_in", buildKeyT)}
		}

		pk, bk := keys()
		join, err := NewHashJoin(NewValues(probeSchema, cloneBatches(probeBatches)...),
			NewBuild(NewValues(buildSchema, cloneBatches(buildBatches)...)), pk, bk, true, nil)
		if err != nil {
			t.Fatal(err)
		}
		joined, err := Collect(join)
		if err != nil {
			t.Fatal(err)
		}
		pk, bk = keys()
		join, _ = NewHashJoin(NewValues(probeSchema, cloneBatches(probeBatches)...),
			NewBuild(NewValues(buildSchema, cloneBatches(buildBatches)...)), pk, bk, true, nil)
		agg, err := NewSegmentedAggregate(join, groupExprs, names, aggs, pi)
		if err != nil {
			t.Fatal(err)
		}
		want, err := Collect(agg)
		if err != nil {
			t.Fatal(err)
		}

		pk, bk = keys()
		gj, err := NewGroupJoin(NewValues(probeSchema, cloneBatches(probeBatches)...),
			NewBuild(NewValues(buildSchema, cloneBatches(buildBatches)...)), pk, bk, groupBy, names, pi, sums)
		if err != nil {
			t.Fatal(err)
		}
		if !gj.Schema().Equal(agg.Schema()) {
			t.Fatalf("schema %s, want %s", gj.Schema(), agg.Schema())
		}
		what := fmt.Sprintf("iter %d: prefix %s at %d, keys %s/%s, groups %v, sums %v, %d probe x %d build rows, key domain %d, group domain %d, nulls %.1f",
			iter, prefixT, pi, probeKeyT, buildKeyT, groupTs, sumTs, len(probeRows), nbuild, keyDomain, groupDomain, nullP)
		if err := gj.Open(); err != nil {
			t.Fatal(err)
		}
		var got []string
		for {
			b, err := gj.Next()
			if err != nil {
				t.Fatal(err)
			}
			if b == nil {
				break
			}
			if b.Len() == 0 || b.Len() > vector.Size {
				t.Fatalf("%s: batch of %d rows", what, b.Len())
			}
			got = append(got, bitRows(b, len(groupBy))...)
		}
		if gj.pairs != int64(joined.Len()) {
			t.Errorf("%s: %d pairs, want %d joined rows", what, gj.pairs, joined.Len())
		}
		gj.Close()
		compareRows(t, what, got, bitRows(want, len(groupBy)))
	}
}
