package expr

import (
	"math"
	"testing"

	"indbml/internal/engine/types"
	"indbml/internal/engine/vector"
)

// TestNarrowingCast holds the CAST kernels and constant folding to one
// narrowing rule: a value converts to INTEGER or BIGINT when, truncated
// toward zero, it lies in the type's range; anything else — NaN and ±Inf
// included — is an error naming the value. A NULL never fails, whatever its
// slot holds, and DOUBLE to REAL overflows to ±Inf as IEEE conversion does.
func TestNarrowingCast(t *testing.T) {
	for _, tc := range []struct {
		in   types.Datum
		to   types.T
		want types.Datum
		err  string
	}{
		{in: types.Int64Datum(3000000000), to: types.Int32, err: "expr: 3000000000 is out of range for INTEGER"},
		{in: types.Int64Datum(2147483648), to: types.Int32, err: "expr: 2147483648 is out of range for INTEGER"},
		{in: types.Int64Datum(-2147483649), to: types.Int32, err: "expr: -2147483649 is out of range for INTEGER"},
		{in: types.Int64Datum(math.MinInt64), to: types.Int32, err: "expr: -9223372036854775808 is out of range for INTEGER"},
		{in: types.Int64Datum(2147483647), to: types.Int32, want: types.Int32Datum(2147483647)},
		{in: types.Int64Datum(-2147483648), to: types.Int32, want: types.Int32Datum(-2147483648)},
		{in: types.Float64Datum(2147483647.9), to: types.Int32, want: types.Int32Datum(2147483647)},
		{in: types.Float64Datum(-2147483648.9), to: types.Int32, want: types.Int32Datum(-2147483648)},
		{in: types.Float64Datum(2147483648), to: types.Int32, err: "expr: 2.147483648e+09 is out of range for INTEGER"},
		{in: types.Float64Datum(3e9), to: types.Int32, err: "expr: 3e+09 is out of range for INTEGER"},
		{in: types.Float32Datum(3e9), to: types.Int32, err: "expr: 3e+09 is out of range for INTEGER"},
		{in: types.Float64Datum(1e19), to: types.Int64, err: "expr: 1e+19 is out of range for BIGINT"},
		{in: types.Float64Datum(9223372036854775808), to: types.Int64, err: "expr: 9.223372036854776e+18 is out of range for BIGINT"},
		{in: types.Float64Datum(-9223372036854775808), to: types.Int64, want: types.Int64Datum(math.MinInt64)},
		{in: types.Float64Datum(9e18), to: types.Int64, want: types.Int64Datum(9000000000000000000)},
		{in: types.Float32Datum(-1e19), to: types.Int64, err: "expr: -1e+19 is out of range for BIGINT"},
		{in: types.Float64Datum(-0.9), to: types.Int64, want: types.Int64Datum(0)},
		{in: types.Float64Datum(math.NaN()), to: types.Int32, err: "expr: NaN is out of range for INTEGER"},
		{in: types.Float64Datum(math.NaN()), to: types.Int64, err: "expr: NaN is out of range for BIGINT"},
		{in: types.Float64Datum(math.Inf(1)), to: types.Int64, err: "expr: +Inf is out of range for BIGINT"},
		{in: types.Float32Datum(float32(math.Inf(-1))), to: types.Int32, err: "expr: -Inf is out of range for INTEGER"},
		{in: types.Float64Datum(1e39), to: types.Float32, want: types.Float32Datum(float32(math.Inf(1)))},
		{in: types.Int32Datum(-7), to: types.Int64, want: types.Int64Datum(-7)},
	} {
		name := tc.in.String() + " AS " + tc.to.String()

		// The kernel, over a column holding the value and a NULL.
		b := vector.NewBatch(types.NewSchema(types.Column{Name: "x", Type: tc.in.Type}), 2)
		_ = b.AppendRow(tc.in)
		_ = b.AppendRow(types.NullDatum(tc.in.Type))
		ev := NewEvaluator(NewCast(NewColRef(0, "x", tc.in.Type), tc.to))
		v, err := ev.Eval(b)
		checkNarrowing(t, name+" (kernel)", v, err, tc.want, tc.err)

		// Constant folding runs the same kernel: a failing cast stays
		// unfolded and fails when evaluated.
		folded := Fold(NewCast(NewConst(tc.in), tc.to))
		if _, isConst := IsConst(folded); isConst != (tc.err == "") {
			t.Errorf("%s: folded to a constant: %v, want %v", name, isConst, tc.err == "")
		}
		one := vector.NewBatch(types.NewSchema(), 1)
		one.SetLen(1)
		fev := NewEvaluator(folded)
		v, err = fev.Eval(one)
		checkNarrowing(t, name+" (folded)", v, err, tc.want, tc.err)

		// The same value under a NULL converts to NULL without failing.
		nulls := vector.New(tc.in.Type, 1)
		nulls.Resize(1)
		nulls.SetDatum(0, tc.in)
		nulls.SetNull(0)
		nb := &vector.Batch{Vecs: []*vector.Vector{nulls}}
		nb.SetLen(1)
		nev := NewEvaluator(NewCast(NewColRef(0, "x", tc.in.Type), tc.to))
		if v, err := nev.Eval(nb); err != nil || !v.NullAt(0) {
			t.Errorf("%s under NULL: %v, NULL %v", name, err, err == nil && v.NullAt(0))
		}
	}
}

func checkNarrowing(t *testing.T, name string, v *vector.Vector, err error, want types.Datum, wantErr string) {
	t.Helper()
	if wantErr != "" {
		if err == nil || err.Error() != wantErr {
			t.Errorf("%s: error %v, want %q", name, err, wantErr)
		}
		return
	}
	if err != nil {
		t.Errorf("%s: %v", name, err)
		return
	}
	if got := v.Datum(0); got.Type != want.Type || got.I64 != want.I64 || math.Float64bits(got.F64) != math.Float64bits(want.F64) {
		t.Errorf("%s = %v, want %v", name, got, want)
	}
}
