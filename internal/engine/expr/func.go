package expr

import (
	"fmt"
	"math"
	"strings"

	"indbml/internal/engine/types"
	"indbml/internal/engine/vector"
)

// FuncKind identifies a builtin scalar function. The set covers standard SQL
// math plus the activation functions of Sec. 4.3.5; ML-To-SQL can either
// call TANH/SIGMOID/RELU directly (engines like Actian Vector provide them)
// or expand them to portable EXP/CASE formulations.
type FuncKind uint8

// Builtin scalar functions.
const (
	FuncExp FuncKind = iota
	FuncLn
	FuncSqrt
	FuncAbs
	FuncPow
	FuncFloor
	FuncCeil
	FuncSin
	FuncCos
	FuncTanh
	FuncSigmoid
	FuncRelu
	FuncGreatest
	FuncLeast
)

var funcByName = map[string]struct {
	kind  FuncKind
	nargs int
}{
	"EXP":      {FuncExp, 1},
	"LN":       {FuncLn, 1},
	"SQRT":     {FuncSqrt, 1},
	"ABS":      {FuncAbs, 1},
	"POWER":    {FuncPow, 2},
	"POW":      {FuncPow, 2},
	"FLOOR":    {FuncFloor, 1},
	"CEIL":     {FuncCeil, 1},
	"CEILING":  {FuncCeil, 1},
	"SIN":      {FuncSin, 1},
	"COS":      {FuncCos, 1},
	"TANH":     {FuncTanh, 1},
	"SIGMOID":  {FuncSigmoid, 1},
	"RELU":     {FuncRelu, 1},
	"GREATEST": {FuncGreatest, 2},
	"LEAST":    {FuncLeast, 2},
}

// Func is a builtin scalar function call over numeric arguments.
type Func struct {
	Kind FuncKind
	Name string
	Args []Expr
	typ  types.T
}

// NewFunc resolves a function by name and type-checks its arguments.
func NewFunc(name string, args []Expr) (Expr, error) {
	info, ok := funcByName[strings.ToUpper(name)]
	if !ok {
		return nil, fmt.Errorf("expr: unknown function %s", strings.ToUpper(name))
	}
	if len(args) != info.nargs {
		return nil, fmt.Errorf("expr: %s expects %d arguments, got %d", strings.ToUpper(name), info.nargs, len(args))
	}
	t := types.Float64
	for _, a := range args {
		if !a.Type().IsNumeric() {
			return nil, fmt.Errorf("expr: %s requires numeric arguments, got %s", strings.ToUpper(name), a.Type())
		}
	}
	// Functions stay in float32 when every argument is float32 (or
	// narrower); the ML queries run entirely in REAL, matching the 4-byte
	// weights of the relational model representation (Sec. 4.1).
	allNarrow := true
	for _, a := range args {
		if a.Type() == types.Float64 || a.Type() == types.Int64 {
			allNarrow = false
		}
	}
	if allNarrow {
		t = types.Float32
	}
	cargs := make([]Expr, len(args))
	for i, a := range args {
		cargs[i] = NewCast(a, t)
	}
	return &Func{Kind: info.kind, Name: strings.ToUpper(name), Args: cargs, typ: t}, nil
}

// Type implements Expr.
func (f *Func) Type() types.T { return f.typ }

// String implements Expr.
func (f *Func) String() string {
	parts := make([]string, len(f.Args))
	for i, a := range f.Args {
		parts[i] = a.String()
	}
	return fmt.Sprintf("%s(%s)", f.Name, strings.Join(parts, ", "))
}

// eval evaluates the one or two arguments and runs the function's kernel.
func (f *Func) eval(ev *Evaluator, b *vector.Batch) (*vector.Vector, error) {
	x, err := f.Args[0].eval(ev, b)
	if err != nil {
		return nil, err
	}
	var y *vector.Vector
	if len(f.Args) == 2 {
		if y, err = f.Args[1].eval(ev, b); err != nil {
			return nil, err
		}
	}
	out := ev.result(f.typ, x.Len())
	if f.typ == types.Float32 {
		f.evalF32(x, y, out)
	} else {
		f.evalF64(x, y, out)
	}
	orNulls(out, x)
	if y != nil {
		orNulls(out, y)
	}
	return out, nil
}

// evalF32 computes a REAL function of x (and y, for the two-argument ones).
func (f *Func) evalF32(xv, yv *vector.Vector, out *vector.Vector) {
	x := xv.Float32s()
	o := out.Float32s()
	switch f.Kind {
	case FuncExp:
		for i, v := range x {
			o[i] = float32(math.Exp(float64(v)))
		}
	case FuncLn:
		for i, v := range x {
			o[i] = float32(math.Log(float64(v)))
		}
	case FuncSqrt:
		for i, v := range x {
			o[i] = float32(math.Sqrt(float64(v)))
		}
	case FuncAbs:
		for i, v := range x {
			if v < 0 {
				o[i] = -v
			} else {
				o[i] = v
			}
		}
	case FuncPow:
		y := yv.Float32s()
		for i, v := range x {
			o[i] = float32(math.Pow(float64(v), float64(y[i])))
		}
	case FuncFloor:
		for i, v := range x {
			o[i] = float32(math.Floor(float64(v)))
		}
	case FuncCeil:
		for i, v := range x {
			o[i] = float32(math.Ceil(float64(v)))
		}
	case FuncSin:
		for i, v := range x {
			o[i] = float32(math.Sin(float64(v)))
		}
	case FuncCos:
		for i, v := range x {
			o[i] = float32(math.Cos(float64(v)))
		}
	case FuncTanh:
		for i, v := range x {
			o[i] = float32(math.Tanh(float64(v)))
		}
	case FuncSigmoid:
		for i, v := range x {
			o[i] = float32(1 / (1 + math.Exp(-float64(v))))
		}
	case FuncRelu:
		for i, v := range x {
			if v < 0 {
				o[i] = 0
			} else {
				o[i] = v
			}
		}
	case FuncGreatest:
		y := yv.Float32s()
		for i, v := range x {
			if y[i] > v {
				o[i] = y[i]
			} else {
				o[i] = v
			}
		}
	case FuncLeast:
		y := yv.Float32s()
		for i, v := range x {
			if y[i] < v {
				o[i] = y[i]
			} else {
				o[i] = v
			}
		}
	}
}

// evalF64 computes a DOUBLE function of x (and y, for the two-argument ones).
func (f *Func) evalF64(xv, yv *vector.Vector, out *vector.Vector) {
	x := xv.Float64s()
	o := out.Float64s()
	switch f.Kind {
	case FuncExp:
		for i, v := range x {
			o[i] = math.Exp(v)
		}
	case FuncLn:
		for i, v := range x {
			o[i] = math.Log(v)
		}
	case FuncSqrt:
		for i, v := range x {
			o[i] = math.Sqrt(v)
		}
	case FuncAbs:
		for i, v := range x {
			o[i] = math.Abs(v)
		}
	case FuncPow:
		y := yv.Float64s()
		for i, v := range x {
			o[i] = math.Pow(v, y[i])
		}
	case FuncFloor:
		for i, v := range x {
			o[i] = math.Floor(v)
		}
	case FuncCeil:
		for i, v := range x {
			o[i] = math.Ceil(v)
		}
	case FuncSin:
		for i, v := range x {
			o[i] = math.Sin(v)
		}
	case FuncCos:
		for i, v := range x {
			o[i] = math.Cos(v)
		}
	case FuncTanh:
		for i, v := range x {
			o[i] = math.Tanh(v)
		}
	case FuncSigmoid:
		for i, v := range x {
			o[i] = 1 / (1 + math.Exp(-v))
		}
	case FuncRelu:
		for i, v := range x {
			o[i] = math.Max(0, v)
		}
	case FuncGreatest:
		y := yv.Float64s()
		for i, v := range x {
			o[i] = math.Max(v, y[i])
		}
	case FuncLeast:
		y := yv.Float64s()
		for i, v := range x {
			o[i] = math.Min(v, y[i])
		}
	}
}

// IsConst reports whether e is a literal (after folding).
func IsConst(e Expr) (types.Datum, bool) {
	if c, ok := e.(*Const); ok {
		return c.Val, true
	}
	return types.Datum{}, false
}

// Fold performs constant folding: any subtree whose leaves are all literals
// is evaluated once at plan time. The optimizer applies this before pushing
// predicates into scans.
func Fold(e Expr) Expr {
	switch t := e.(type) {
	case *BinOp:
		l, r := Fold(t.L), Fold(t.R)
		folded := &BinOp{Op: t.Op, L: l, R: r, typ: t.typ, argT: t.argT}
		if _, lok := IsConst(l); lok {
			if _, rok := IsConst(r); rok {
				if d, ok := evalConst(folded); ok {
					return NewConst(d)
				}
			}
		}
		return folded
	case *UnaryOp:
		in := Fold(t.E)
		folded := &UnaryOp{Op: t.Op, E: in}
		if _, ok := IsConst(in); ok {
			if d, ok := evalConst(folded); ok {
				return NewConst(d)
			}
		}
		return folded
	case *Cast:
		in := Fold(t.E)
		folded := &Cast{E: in, To: t.To}
		if _, ok := IsConst(in); ok {
			if d, ok := evalConst(folded); ok {
				return NewConst(d)
			}
		}
		return folded
	case *Func:
		args := make([]Expr, len(t.Args))
		allConst := true
		for i, a := range t.Args {
			args[i] = Fold(a)
			if _, ok := IsConst(args[i]); !ok {
				allConst = false
			}
		}
		folded := &Func{Kind: t.Kind, Name: t.Name, Args: args, typ: t.typ}
		if allConst {
			if d, ok := evalConst(folded); ok {
				return NewConst(d)
			}
		}
		return folded
	default:
		return e
	}
}

// evalConst evaluates a constant expression over a one-row dummy batch.
func evalConst(e Expr) (types.Datum, bool) {
	b := vector.NewBatch(types.NewSchema(), 1)
	b.SetLen(1)
	ev := NewEvaluator(e)
	v, err := ev.Eval(b)
	if err != nil || v.Len() != 1 {
		return types.Datum{}, false
	}
	return v.Datum(0), true
}
