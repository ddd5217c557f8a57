package expr

import (
	"math"
	"math/rand"
	"sort"
	"sync"
	"testing"
	"time"

	"indbml/internal/engine/types"
	"indbml/internal/engine/vector"
)

// The tests in this file draw their inputs from a fresh seed on every run
// (CI runs them with -count=5). A failure logs the seed.

func seeded(t *testing.T) *rand.Rand {
	seed := time.Now().UnixNano()
	t.Cleanup(func() {
		if t.Failed() {
			t.Logf("seed %d", seed)
		}
	})
	return rand.New(rand.NewSource(seed))
}

var (
	genTypes   = []types.T{types.Int32, types.Int64, types.Float32, types.Float64, types.Bool, types.String}
	numTypes   = []types.T{types.Int32, types.Int64, types.Float32, types.Float64}
	arithOps   = []Op{OpAdd, OpSub, OpMul, OpDiv}
	compareOps = []Op{OpEq, OpNe, OpLt, OpLe, OpGt, OpGe}
)

// genDatum draws a value of type t from a small domain that includes zero
// (so divisions by zero happen), or NULL with probability 0.15.
func genDatum(rng *rand.Rand, t types.T) types.Datum {
	if rng.Intn(100) < 15 {
		return types.NullDatum(t)
	}
	x := rng.Intn(7) - 3
	switch t {
	case types.Int32:
		return types.Int32Datum(int32(x))
	case types.Int64:
		return types.Int64Datum(int64(x))
	case types.Float32:
		return types.Float32Datum(float32(x) / 2)
	case types.Float64:
		return types.Float64Datum(float64(x) / 4)
	case types.Bool:
		return types.BoolDatum(x > 0)
	default:
		return types.StringDatum(string(rune('a' + x + 3)))
	}
}

// treeGen builds random bound trees over one column of every type, counting
// the node kinds it made.
type treeGen struct {
	rng   *rand.Rand
	cols  map[types.T]*ColRef
	kinds map[string]int
}

func (g *treeGen) pick(ts []types.T) types.T { return ts[g.rng.Intn(len(ts))] }

// of returns a random tree of type t at most depth levels deep.
func (g *treeGen) of(t types.T, depth int) Expr {
	if depth == 0 || g.rng.Intn(5) == 0 {
		if g.rng.Intn(3) == 0 {
			g.kinds["Const"]++
			return NewConst(genDatum(g.rng, t))
		}
		g.kinds["ColRef"]++
		return g.cols[t]
	}
	d := depth - 1
	var e Expr
	var err error
	switch k := g.rng.Intn(4); {
	case k == 0:
		e, err = g.caseOf(t, d)
	case k == 1 && t != types.String:
		// A cast from any other numeric or boolean type.
		e = g.of(g.pick([]types.T{types.Int32, types.Int64, types.Float32, types.Float64, types.Bool}), d)
	case k == 1:
		e = g.of(g.pick(genTypes), d)
	case t == types.Bool:
		e, err = g.boolOf(d)
	case t == types.String:
		e = g.of(t, d)
	default:
		e, err = g.numberOf(d)
	}
	if err != nil {
		panic(err)
	}
	if e.Type() != t {
		g.kinds["Cast"]++
		e = g.cast(e, t)
	}
	return e
}

// cast converts e to t. A cast to an integer type fails on a value out of
// range, so one whose input may leave ±1e9 runs under a CASE that takes
// only the values inside (the comparison is false for NaN): the cast may not
// fail on the rows the arm does not take.
func (g *treeGen) cast(e Expr, t types.T) Expr {
	if t != types.Int32 && t != types.Int64 || bound(e) < 1e9 {
		return NewCast(e, t)
	}
	g.kinds["GuardedCast"]++
	abs, err := NewFunc("abs", []Expr{e})
	if err != nil {
		panic(err)
	}
	inRange, err := NewBinOp(OpLt, abs, NewConst(types.Float64Datum(1e9)))
	if err != nil {
		panic(err)
	}
	c, err := NewCase([]When{{Cond: inRange, Then: NewCast(e, t)}}, nil)
	if err != nil {
		panic(err)
	}
	return c
}

// bound is a bound on the magnitude of the numbers e computes, +Inf when
// it may make any value, NaN and ±Inf included, as a quotient, LN, SQRT or
// POWER may. Leaves lie within ±3, a BOOLEAN is 0 or 1.
func bound(e Expr) float64 {
	if e.Type() == types.Bool {
		return 1
	}
	switch e := e.(type) {
	case *BinOp:
		l, r := bound(e.L), bound(e.R)
		switch e.Op {
		case OpAdd, OpSub:
			return l + r
		case OpMul:
			return l * r
		case OpMod:
			return math.Min(l, r)
		}
		return math.Inf(1)
	case *UnaryOp:
		return bound(e.E)
	case *Cast:
		return bound(e.E)
	case *Case:
		b := 0.0
		for _, w := range e.Whens {
			b = math.Max(b, bound(w.Then))
		}
		if e.Else != nil {
			b = math.Max(b, bound(e.Else))
		}
		return b
	case *Func:
		b := 0.0
		for _, a := range e.Args {
			b = math.Max(b, bound(a))
		}
		switch e.Kind {
		case FuncAbs, FuncRelu, FuncGreatest, FuncLeast:
			return b
		case FuncFloor, FuncCeil:
			return b + 1
		case FuncExp:
			return math.Exp(b)
		case FuncSin, FuncCos, FuncTanh, FuncSigmoid:
			if !math.IsInf(b, 1) { // NaN in, NaN out
				return 1
			}
		}
		return math.Inf(1) // LN, SQRT and POWER make NaN or ±Inf
	default: // ColRef, Const
		return 3
	}
}

func (g *treeGen) caseOf(t types.T, d int) (Expr, error) {
	g.kinds["Case"]++
	whens := make([]When, 1+g.rng.Intn(3))
	for i := range whens {
		arm := t
		if t.IsNumeric() {
			arm = g.pick(numTypes) // promoted to a common type
		}
		whens[i] = When{Cond: g.of(types.Bool, d), Then: g.of(arm, d)}
	}
	var els Expr
	if g.rng.Intn(3) > 0 {
		els = g.of(t, d)
	}
	return NewCase(whens, els)
}

func (g *treeGen) boolOf(d int) (Expr, error) {
	switch g.rng.Intn(4) {
	case 0:
		g.kinds["Compare"]++
		t := g.pick(genTypes)
		l, r := g.of(t, d), g.of(t, d)
		if t.IsNumeric() {
			r = g.of(g.pick(numTypes), d) // promoted to a common type
		}
		return NewBinOp(compareOps[g.rng.Intn(len(compareOps))], l, r)
	case 1:
		g.kinds["Logic"]++
		op := OpAnd
		if g.rng.Intn(2) == 0 {
			op = OpOr
		}
		return NewBinOp(op, g.of(types.Bool, d), g.of(types.Bool, d))
	case 2:
		g.kinds["Not"]++
		return NewUnaryOp(OpNot, g.of(types.Bool, d))
	default:
		g.kinds["IsNull"]++
		return NewIsNull(g.of(g.pick(genTypes), d), g.rng.Intn(2) == 0), nil
	}
}

func (g *treeGen) numberOf(d int) (Expr, error) {
	switch g.rng.Intn(4) {
	case 0:
		g.kinds["Arith"]++
		op := arithOps[g.rng.Intn(len(arithOps))]
		return NewBinOp(op, g.of(g.pick(numTypes), d), g.of(g.pick(numTypes), d))
	case 1:
		g.kinds["Mod"]++
		ints := []types.T{types.Int32, types.Int64}
		return NewBinOp(OpMod, g.of(g.pick(ints), d), g.of(g.pick(ints), d))
	case 2:
		g.kinds["Neg"]++
		return NewUnaryOp(OpNeg, g.of(g.pick(numTypes), d))
	default:
		g.kinds["Func"]++
		names := make([]string, 0, len(funcByName))
		for name := range funcByName {
			names = append(names, name)
		}
		sort.Strings(names)
		name := names[g.rng.Intn(len(names))]
		args := make([]Expr, funcByName[name].nargs)
		for i := range args {
			args[i] = g.of(g.pick(numTypes), d)
		}
		return NewFunc(name, args)
	}
}

// genBatch is n random rows over one column of every type.
func genBatch(rng *rand.Rand, schema *types.Schema, n int) *vector.Batch {
	b := vector.NewBatch(schema, n)
	row := make([]types.Datum, schema.Len())
	for range n {
		for c := range row {
			row[c] = genDatum(rng, schema.Col(c).Type)
		}
		_ = b.AppendRow(row...)
	}
	return b
}

// snapshot copies a result out of the vector its evaluator owns.
func snapshot(v *vector.Vector) []types.Datum {
	out := make([]types.Datum, v.Len())
	for i := range out {
		out[i] = v.Datum(i)
	}
	return out
}

// sameDatums compares two results value by value, floats by their bits
// (NaN included), NULLs regardless of what lies under them.
func sameDatums(a, b []types.Datum) (int, bool) {
	if len(a) != len(b) {
		return -1, false
	}
	for i := range a {
		x, y := a[i], b[i]
		if x.Null != y.Null || x.Type != y.Type {
			return i, false
		}
		if !x.Null && (x.B != y.B || x.I64 != y.I64 || x.S != y.S || math.Float64bits(x.F64) != math.Float64bits(y.F64)) {
			return i, false
		}
	}
	return 0, true
}

// TestGeneratedEvaluatorReuse checks that an evaluator reusing its result
// vectors across batches whose lengths shrink and grow computes exactly what
// a fresh evaluator per batch computes, on random trees of every node kind
// with NULLs and divisions by zero; that a consumer narrowing a result in
// place does not leak into the next batch; and that two evaluators over one
// shared tree run concurrently (the test runs under -race in CI).
func TestGeneratedEvaluatorReuse(t *testing.T) {
	rng := seeded(t)
	cols := make([]types.Column, len(genTypes))
	g := &treeGen{rng: rng, cols: map[types.T]*ColRef{}, kinds: map[string]int{}}
	for i, typ := range genTypes {
		cols[i] = types.Column{Name: "c_" + typ.String(), Type: typ}
		g.cols[typ] = NewColRef(i, cols[i].Name, typ)
	}
	schema := types.NewSchema(cols...)
	var batches []*vector.Batch
	for _, n := range []int{vector.Size, 7, 0, vector.Size} {
		batches = append(batches, genBatch(rng, schema, n))
	}

	const trees = 300
	exprs := make([]Expr, trees)
	want := make([][][]types.Datum, trees) // [tree][batch] from fresh evaluators
	for i := range exprs {
		exprs[i] = g.of(g.pick(genTypes), 1+rng.Intn(5))
		long := NewEvaluator(exprs[i])
		for bi, b := range batches {
			fresh := NewEvaluator(exprs[i])
			fv, ferr := fresh.Eval(b)
			lv, lerr := long.Eval(b)
			if (ferr == nil) != (lerr == nil) {
				t.Fatalf("%s, batch %d: fresh error %v, reused error %v", exprs[i], bi, ferr, lerr)
			}
			if ferr != nil {
				t.Fatalf("%s, batch %d: %v", exprs[i], bi, ferr)
			}
			want[i] = append(want[i], snapshot(fv))
			if r, ok := sameDatums(snapshot(lv), want[i][bi]); !ok {
				t.Fatalf("%s, batch %d (%d rows): reused evaluator differs from a fresh one at row %d", exprs[i], bi, b.Len(), r)
			}
			if lv.Len() > 1 && !isInput(lv, b) {
				// Narrow the result in place, as a Filter above a Project
				// does; the next batch must not see it.
				narrowed := &vector.Batch{Vecs: []*vector.Vector{lv}}
				narrowed.SetLen(lv.Len())
				narrowed.Gather([]int{0, lv.Len() - 1})
			}
		}
	}
	for _, kind := range []string{"ColRef", "Const", "Cast", "GuardedCast", "Case", "Compare", "Logic", "Not", "IsNull", "Arith", "Mod", "Neg", "Func"} {
		if g.kinds[kind] == 0 {
			t.Errorf("no %s node generated", kind)
		}
	}

	// Two evaluators per tree on two goroutines, over the same bound trees
	// and input batches.
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			evs := NewEvaluators(exprs)
			for round := 0; round < 3; round++ {
				for bi, b := range batches {
					for i := range evs {
						v, err := evs[i].Eval(b)
						if err != nil {
							t.Errorf("%s: %v", exprs[i], err)
							return
						}
						if r, ok := sameDatums(snapshot(v), want[i][bi]); !ok {
							t.Errorf("%s, batch %d: concurrent evaluator differs at row %d", exprs[i], bi, r)
							return
						}
					}
				}
			}
		}()
	}
	wg.Wait()
}

// isInput reports whether v is one of b's own columns (a bare column
// reference's result), which belongs to the batch, not the evaluator.
func isInput(v *vector.Vector, b *vector.Batch) bool {
	for _, c := range b.Vecs {
		if c == v {
			return true
		}
	}
	return false
}
