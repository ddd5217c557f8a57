package expr

import (
	"math"
	"testing"
	"testing/quick"

	"indbml/internal/engine/types"
	"indbml/internal/engine/vector"
)

func f32Batch(name string, vals ...float32) (*vector.Batch, *ColRef) {
	schema := types.NewSchema(types.Column{Name: name, Type: types.Float32})
	b := vector.NewBatch(schema, len(vals))
	for _, v := range vals {
		_ = b.AppendRow(types.Float32Datum(v))
	}
	return b, NewColRef(0, name, types.Float32)
}

func evalOne(t *testing.T, e Expr, b *vector.Batch) *vector.Vector {
	t.Helper()
	ev := NewEvaluator(e)
	v, err := ev.Eval(b)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

func TestArithmeticF32(t *testing.T) {
	b, x := f32Batch("x", 1, 2, 3)
	for _, tc := range []struct {
		op   Op
		want []float32
	}{
		{OpAdd, []float32{2, 4, 6}},
		{OpSub, []float32{0, 0, 0}},
		{OpMul, []float32{1, 4, 9}},
		{OpDiv, []float32{1, 1, 1}},
	} {
		e, err := NewBinOp(tc.op, x, x)
		if err != nil {
			t.Fatal(err)
		}
		v := evalOne(t, e, b)
		for i, w := range tc.want {
			if v.Float32s()[i] != w {
				t.Errorf("%v: got %v want %v", tc.op, v.Float32s(), tc.want)
				break
			}
		}
	}
}

func TestDivisionByZeroYieldsNull(t *testing.T) {
	b, x := f32Batch("x", 1, 0)
	e, _ := NewBinOp(OpDiv, NewConst(types.Float32Datum(10)), x)
	v := evalOne(t, e, b)
	if v.NullAt(0) || !v.NullAt(1) {
		t.Errorf("division by zero should be NULL: %v nulls=%v", v.Float32s(), v.Nulls())
	}
	// Integer modulo by zero likewise.
	schema := types.NewSchema(types.Column{Name: "i", Type: types.Int32})
	ib := vector.NewBatch(schema, 2)
	_ = ib.AppendRow(types.Int32Datum(3))
	_ = ib.AppendRow(types.Int32Datum(0))
	m, _ := NewBinOp(OpMod, NewConst(types.Int32Datum(7)), NewColRef(0, "i", types.Int32))
	mv := evalOne(t, m, ib)
	if mv.Int32s()[0] != 1 || !mv.NullAt(1) {
		t.Errorf("mod wrong: %v", mv.Int32s())
	}
}

func TestComparisonPromotion(t *testing.T) {
	// Int literal compared against a REAL column must promote, keeping the
	// generated ML queries type-correct.
	b, x := f32Batch("x", 0.5, 1.5)
	e, err := NewBinOp(OpGt, x, NewConst(types.Int32Datum(1)))
	if err != nil {
		t.Fatal(err)
	}
	v := evalOne(t, e, b)
	if v.Bools()[0] || !v.Bools()[1] {
		t.Errorf("comparison wrong: %v", v.Bools())
	}
}

func TestLogicKleene(t *testing.T) {
	schema := types.NewSchema(
		types.Column{Name: "a", Type: types.Bool},
		types.Column{Name: "b", Type: types.Bool},
	)
	b := vector.NewBatch(schema, 3)
	_ = b.AppendRow(types.BoolDatum(true), types.NullDatum(types.Bool))
	_ = b.AppendRow(types.BoolDatum(false), types.NullDatum(types.Bool))
	_ = b.AppendRow(types.BoolDatum(true), types.BoolDatum(false))
	a := NewColRef(0, "a", types.Bool)
	bb := NewColRef(1, "b", types.Bool)

	and, _ := NewBinOp(OpAnd, a, bb)
	av := evalOne(t, and, b)
	// true AND NULL = NULL; false AND NULL = false; true AND false = false.
	if !av.NullAt(0) || av.NullAt(1) || av.Bools()[1] || av.Bools()[2] {
		t.Errorf("AND kleene wrong: %v nulls %v", av.Bools(), av.Nulls())
	}
	or, _ := NewBinOp(OpOr, a, bb)
	ov := evalOne(t, or, b)
	// true OR NULL = true; false OR NULL = NULL.
	if !ov.Bools()[0] || !ov.NullAt(1) {
		t.Errorf("OR kleene wrong: %v nulls %v", ov.Bools(), ov.Nulls())
	}
}

// TestLogicWithoutNulls runs AND and OR over NULL-free operands, the plain
// && and || path, on every pair of truth values.
func TestLogicWithoutNulls(t *testing.T) {
	schema := types.NewSchema(types.Column{Name: "a", Type: types.Bool}, types.Column{Name: "b", Type: types.Bool})
	b := vector.NewBatch(schema, 4)
	for _, r := range [][2]bool{{false, false}, {false, true}, {true, false}, {true, true}} {
		_ = b.AppendRow(types.BoolDatum(r[0]), types.BoolDatum(r[1]))
	}
	a, bb := NewColRef(0, "a", types.Bool), NewColRef(1, "b", types.Bool)
	and, _ := NewBinOp(OpAnd, a, bb)
	or, _ := NewBinOp(OpOr, a, bb)
	av, ov := evalOne(t, and, b), evalOne(t, or, b)
	for r, want := range [][2]bool{{false, false}, {false, true}, {false, true}, {true, true}} {
		if av.NullAt(r) || ov.NullAt(r) || av.Bools()[r] != want[0] || ov.Bools()[r] != want[1] {
			t.Errorf("row %d: AND %v OR %v, want %v", r, av.Datum(r), ov.Datum(r), want)
		}
	}
}

// TestConstAcrossBatchLengths evaluates constants over batches of 100,
// 166, 300, 1024, 166 and 1024 rows, the last again after its consumer
// narrowed the result in place: every row holds the constant, and a NULL
// constant is NULL on every row. The growing lengths at the start make the
// vector's array outgrow the rows a batch asked for.
func TestConstAcrossBatchLengths(t *testing.T) {
	schema := types.NewSchema(types.Column{Name: "x", Type: types.Int64})
	for _, c := range []types.Datum{types.Int64Datum(7), types.StringDatum("layer"), types.NullDatum(types.Int32)} {
		ev := NewEvaluator(NewConst(c))
		check := func(n int, narrow bool) {
			t.Helper()
			b := vector.NewBatch(schema, n)
			b.SetLen(n)
			v, err := ev.Eval(b)
			if err != nil {
				t.Fatal(err)
			}
			if narrow {
				out := &vector.Batch{Schema: types.NewSchema(types.Column{Name: "c", Type: c.Type}), Vecs: []*vector.Vector{v}}
				out.SetLen(n)
				out.Gather([]int{1, 5, n - 1})
				n = 3
			}
			if v.Len() != n {
				t.Fatalf("%s: %d rows, want %d", c, v.Len(), n)
			}
			for r := range n {
				if got := v.Datum(r); got.Null != c.Null || (!c.Null && got.String() != c.String()) {
					t.Fatalf("%s over %d rows: row %d = %s", c, n, r, got)
				}
			}
		}
		for _, n := range []int{100, 166, 300, 1024, 166, 1024} {
			check(n, false)
		}
		check(1024, true)
		check(1024, false)
	}
}

func TestCaseSelectsFirstMatch(t *testing.T) {
	b, x := f32Batch("x", -1, 0.5, 2)
	gt0, _ := NewBinOp(OpGt, x, NewConst(types.Int32Datum(0)))
	gt1, _ := NewBinOp(OpGt, x, NewConst(types.Int32Datum(1)))
	c, err := NewCase([]When{
		{Cond: gt1, Then: NewConst(types.Float32Datum(100))},
		{Cond: gt0, Then: NewConst(types.Float32Datum(10))},
	}, NewConst(types.Float32Datum(1)))
	if err != nil {
		t.Fatal(err)
	}
	v := evalOne(t, c, b)
	want := []float32{1, 10, 100}
	for i, w := range want {
		if v.Float32s()[i] != w {
			t.Errorf("case[%d] = %v, want %v", i, v.Float32s()[i], w)
		}
	}
}

func TestCaseWithoutElseYieldsNull(t *testing.T) {
	b, x := f32Batch("x", -5)
	gt0, _ := NewBinOp(OpGt, x, NewConst(types.Int32Datum(0)))
	c, _ := NewCase([]When{{Cond: gt0, Then: x}}, nil)
	v := evalOne(t, c, b)
	if !v.NullAt(0) {
		t.Error("unmatched CASE without ELSE should be NULL")
	}
}

func TestFuncsF32(t *testing.T) {
	b, x := f32Batch("x", -2, 0, 2)
	checks := map[string][]float64{
		"RELU":    {0, 0, 2},
		"ABS":     {2, 0, 2},
		"SIGMOID": {1 / (1 + math.Exp(2)), 0.5, 1 / (1 + math.Exp(-2))},
		"TANH":    {math.Tanh(-2), 0, math.Tanh(2)},
		"EXP":     {math.Exp(-2), 1, math.Exp(2)},
	}
	for name, want := range checks {
		f, err := NewFunc(name, []Expr{x})
		if err != nil {
			t.Fatal(err)
		}
		if f.Type() != types.Float32 {
			t.Errorf("%s over REAL should stay REAL, got %v", name, f.Type())
		}
		v := evalOne(t, f, b)
		for i, w := range want {
			if math.Abs(float64(v.Float32s()[i])-w) > 1e-5 {
				t.Errorf("%s[%d] = %v, want %v", name, i, v.Float32s()[i], w)
			}
		}
	}
}

func TestFuncArityAndUnknown(t *testing.T) {
	_, x := f32Batch("x", 1)
	if _, err := NewFunc("EXP", []Expr{x, x}); err == nil {
		t.Error("arity error expected")
	}
	if _, err := NewFunc("FROBNICATE", []Expr{x}); err == nil {
		t.Error("unknown function error expected")
	}
}

func TestCastNumericFastPaths(t *testing.T) {
	b, x := f32Batch("x", 1.7)
	c := NewCast(x, types.Float64)
	v := evalOne(t, c, b)
	if math.Abs(v.Float64s()[0]-1.7) > 1e-6 {
		t.Errorf("cast f32→f64 = %v", v.Float64s()[0])
	}
	if NewCast(x, types.Float32) != x {
		t.Error("no-op cast should return the input expression")
	}
}

func TestFoldConstants(t *testing.T) {
	two := NewConst(types.Int32Datum(2))
	three := NewConst(types.Int32Datum(3))
	add, _ := NewBinOp(OpAdd, two, three)
	mul, _ := NewBinOp(OpMul, add, NewConst(types.Int32Datum(10)))
	folded := Fold(mul)
	d, ok := IsConst(folded)
	if !ok || d.I64 != 50 {
		t.Errorf("Fold = %v (const=%v)", folded, ok)
	}
	// Non-constant parts survive.
	_, x := f32Batch("x", 1)
	mixed, _ := NewBinOp(OpAdd, x, add)
	foldedMixed := Fold(mixed)
	if _, ok := IsConst(foldedMixed); ok {
		t.Error("expression with column refs must not fold to a constant")
	}
}

func TestUnaryOps(t *testing.T) {
	b, x := f32Batch("x", 2.5)
	neg, err := NewUnaryOp(OpNeg, x)
	if err != nil {
		t.Fatal(err)
	}
	if v := evalOne(t, neg, b); v.Float32s()[0] != -2.5 {
		t.Errorf("neg = %v", v.Float32s()[0])
	}
	gt, _ := NewBinOp(OpGt, x, NewConst(types.Int32Datum(0)))
	not, err := NewUnaryOp(OpNot, gt)
	if err != nil {
		t.Fatal(err)
	}
	if v := evalOne(t, not, b); v.Bools()[0] {
		t.Error("NOT true = true?")
	}
	if _, err := NewUnaryOp(OpNot, x); err == nil {
		t.Error("NOT over numeric should fail binding")
	}
}

func TestSigmoidIdentityProperty(t *testing.T) {
	// SIGMOID(x) == 1 / (1 + EXP(-x)) — the portable expansion ML-To-SQL
	// emits must agree with the native function.
	err := quick.Check(func(raw float32) bool {
		x := raw
		if x != x || x > 50 || x < -50 {
			x = 0
		}
		b, col := f32Batch("x", x)
		native, _ := NewFunc("SIGMOID", []Expr{col})
		negX, _ := NewUnaryOp(OpNeg, col)
		expNegX, _ := NewFunc("EXP", []Expr{negX})
		onePlus, _ := NewBinOp(OpAdd, NewConst(types.Float32Datum(1)), expNegX)
		portable, _ := NewBinOp(OpDiv, NewConst(types.Float32Datum(1)), onePlus)
		nev, pev := NewEvaluator(native), NewEvaluator(portable)
		nv, err1 := nev.Eval(b)
		pv, err2 := pev.Eval(b)
		if err1 != nil || err2 != nil {
			return false
		}
		d := float64(nv.Float32s()[0] - pv.Float32s()[0])
		return math.Abs(d) < 1e-5
	}, &quick.Config{MaxCount: 200})
	if err != nil {
		t.Error(err)
	}
}
