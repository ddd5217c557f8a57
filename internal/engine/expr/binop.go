package expr

import (
	"fmt"
	"strings"

	"indbml/internal/engine/types"
	"indbml/internal/engine/vector"
)

// Op enumerates binary and unary operators.
type Op uint8

// Operators.
const (
	OpAdd Op = iota
	OpSub
	OpMul
	OpDiv
	OpMod
	OpEq
	OpNe
	OpLt
	OpLe
	OpGt
	OpGe
	OpAnd
	OpOr
	OpNot
	OpNeg
)

var opNames = map[Op]string{
	OpAdd: "+", OpSub: "-", OpMul: "*", OpDiv: "/", OpMod: "%",
	OpEq: "=", OpNe: "<>", OpLt: "<", OpLe: "<=", OpGt: ">", OpGe: ">=",
	OpAnd: "AND", OpOr: "OR", OpNot: "NOT", OpNeg: "-",
}

// String returns the SQL spelling of the operator.
func (o Op) String() string { return opNames[o] }

// IsComparison reports whether the operator yields a boolean from two
// comparable operands.
func (o Op) IsComparison() bool { return o >= OpEq && o <= OpGe }

// IsArithmetic reports whether the operator is numeric arithmetic.
func (o Op) IsArithmetic() bool { return o <= OpMod }

// BinOp is a binary operation; operands are widened to a common type at
// construction time.
type BinOp struct {
	Op   Op
	L, R Expr
	typ  types.T // result type
	argT types.T // common operand type
}

// NewBinOp builds and type-checks a binary operation, inserting casts so
// both operands share a type.
func NewBinOp(op Op, l, r Expr) (Expr, error) {
	switch {
	case op.IsArithmetic():
		common, err := types.Promote(l.Type(), r.Type())
		if err != nil {
			return nil, fmt.Errorf("expr: %s: %w", op, err)
		}
		if op == OpMod && !common.IsInteger() {
			return nil, fmt.Errorf("expr: %% requires integer operands, got %s", common)
		}
		return &BinOp{Op: op, L: NewCast(l, common), R: NewCast(r, common), typ: common, argT: common}, nil
	case op.IsComparison():
		common := l.Type()
		if l.Type() != r.Type() {
			var err error
			if common, err = types.Promote(l.Type(), r.Type()); err != nil {
				return nil, fmt.Errorf("expr: %s: %w", op, err)
			}
		}
		return &BinOp{Op: op, L: NewCast(l, common), R: NewCast(r, common), typ: types.Bool, argT: common}, nil
	case op == OpAnd || op == OpOr:
		if l.Type() != types.Bool || r.Type() != types.Bool {
			return nil, fmt.Errorf("expr: %s requires boolean operands, got %s and %s", op, l.Type(), r.Type())
		}
		return &BinOp{Op: op, L: l, R: r, typ: types.Bool, argT: types.Bool}, nil
	}
	return nil, fmt.Errorf("expr: %s is not a binary operator", op)
}

// Type implements Expr.
func (b *BinOp) Type() types.T { return b.typ }

// String implements Expr.
func (b *BinOp) String() string { return fmt.Sprintf("(%s %s %s)", b.L, b.Op, b.R) }

// eval runs the typed kernel of the operand type over both operands.
func (b *BinOp) eval(ev *Evaluator, batch *vector.Batch) (*vector.Vector, error) {
	lv, err := b.L.eval(ev, batch)
	if err != nil {
		return nil, err
	}
	var rv *vector.Vector
	if b.Op == OpAnd || b.Op == OpOr {
		// The right side decides only the rows the left leaves open.
		rv, err = ev.evalKept(b.R, batch, lv, b.Op == OpAnd)
	} else {
		rv, err = b.R.eval(ev, batch)
	}
	if err != nil {
		return nil, err
	}
	out := ev.result(b.typ, lv.Len())

	if b.Op == OpAnd || b.Op == OpOr {
		evalLogic(b.Op, lv, rv, out)
		return out, nil
	}

	switch b.argT {
	case types.Float32:
		evalF32(b.Op, lv.Float32s(), rv.Float32s(), out)
	case types.Float64:
		evalF64(b.Op, lv.Float64s(), rv.Float64s(), out)
	case types.Int32:
		evalI32(b.Op, lv.Int32s(), rv.Int32s(), out)
	case types.Int64:
		evalI64(b.Op, lv.Int64s(), rv.Int64s(), out)
	default: // VARCHAR or BOOLEAN: comparisons only
		if !b.Op.IsComparison() {
			return nil, fmt.Errorf("expr: %s unsupported for %s operands", b.Op, b.argT)
		}
		if b.argT == types.String {
			compareInto(b.Op, lv.Strings(), rv.Strings(), out.Bools(), strings.Compare)
		} else {
			compareInto(b.Op, lv.Bools(), rv.Bools(), out.Bools(), compareBool)
		}
	}
	orNulls(out, lv)
	orNulls(out, rv)
	return out, nil
}

// evalLogic implements Kleene three-valued AND/OR, plain && or || without NULLs.
func evalLogic(op Op, l, r, out *vector.Vector) {
	lb, rb, ob := l.Bools(), r.Bools(), out.Bools()
	if !l.HasNulls() && !r.HasNulls() {
		lb, rb = lb[:len(ob)], rb[:len(ob)]
		if op == OpAnd {
			for i := range ob {
				ob[i] = lb[i] && rb[i]
			}
		} else {
			for i := range ob {
				ob[i] = lb[i] || rb[i]
			}
		}
		return
	}
	for i := range ob {
		lNull, rNull := l.NullAt(i), r.NullAt(i)
		lt := !lNull && lb[i]
		rt := !rNull && rb[i]
		lf := !lNull && !lb[i]
		rf := !rNull && !rb[i]
		if op == OpAnd {
			switch {
			case lf || rf:
				ob[i] = false
			case lt && rt:
				ob[i] = true
			default:
				out.SetNull(i)
			}
		} else {
			switch {
			case lt || rt:
				ob[i] = true
			case lf && rf:
				ob[i] = false
			default:
				out.SetNull(i)
			}
		}
	}
}

func evalF32(op Op, l, r []float32, out *vector.Vector) {
	switch op {
	case OpAdd:
		o := out.Float32s()
		for i, v := range l {
			o[i] = v + r[i]
		}
	case OpSub:
		o := out.Float32s()
		for i, v := range l {
			o[i] = v - r[i]
		}
	case OpMul:
		o := out.Float32s()
		for i, v := range l {
			o[i] = v * r[i]
		}
	case OpDiv:
		o := out.Float32s()
		for i, v := range l {
			if r[i] == 0 {
				out.SetNull(i)
				continue
			}
			o[i] = v / r[i]
		}
	default:
		o := out.Bools()
		for i, v := range l {
			o[i] = cmpResult(op, compareF64(float64(v), float64(r[i])))
		}
	}
}

func evalF64(op Op, l, r []float64, out *vector.Vector) {
	switch op {
	case OpAdd:
		o := out.Float64s()
		for i, v := range l {
			o[i] = v + r[i]
		}
	case OpSub:
		o := out.Float64s()
		for i, v := range l {
			o[i] = v - r[i]
		}
	case OpMul:
		o := out.Float64s()
		for i, v := range l {
			o[i] = v * r[i]
		}
	case OpDiv:
		o := out.Float64s()
		for i, v := range l {
			if r[i] == 0 {
				out.SetNull(i)
				continue
			}
			o[i] = v / r[i]
		}
	default:
		o := out.Bools()
		for i, v := range l {
			o[i] = cmpResult(op, compareF64(v, r[i]))
		}
	}
}

func evalI32(op Op, l, r []int32, out *vector.Vector) {
	switch op {
	case OpAdd:
		o := out.Int32s()
		for i, v := range l {
			o[i] = v + r[i]
		}
	case OpSub:
		o := out.Int32s()
		for i, v := range l {
			o[i] = v - r[i]
		}
	case OpMul:
		o := out.Int32s()
		for i, v := range l {
			o[i] = v * r[i]
		}
	case OpDiv:
		o := out.Int32s()
		for i, v := range l {
			if r[i] == 0 {
				out.SetNull(i)
				continue
			}
			o[i] = v / r[i]
		}
	case OpMod:
		o := out.Int32s()
		for i, v := range l {
			if r[i] == 0 {
				out.SetNull(i)
				continue
			}
			o[i] = v % r[i]
		}
	default:
		o := out.Bools()
		for i, v := range l {
			o[i] = cmpResult(op, compareI64(int64(v), int64(r[i])))
		}
	}
}

func evalI64(op Op, l, r []int64, out *vector.Vector) {
	switch op {
	case OpAdd:
		o := out.Int64s()
		for i, v := range l {
			o[i] = v + r[i]
		}
	case OpSub:
		o := out.Int64s()
		for i, v := range l {
			o[i] = v - r[i]
		}
	case OpMul:
		o := out.Int64s()
		for i, v := range l {
			o[i] = v * r[i]
		}
	case OpDiv:
		o := out.Int64s()
		for i, v := range l {
			if r[i] == 0 {
				out.SetNull(i)
				continue
			}
			o[i] = v / r[i]
		}
	case OpMod:
		o := out.Int64s()
		for i, v := range l {
			if r[i] == 0 {
				out.SetNull(i)
				continue
			}
			o[i] = v % r[i]
		}
	default:
		o := out.Bools()
		for i, v := range l {
			o[i] = cmpResult(op, compareI64(v, r[i]))
		}
	}
}

func compareInto[T any](op Op, l, r []T, o []bool, compare func(a, b T) int) {
	for i, v := range l {
		o[i] = cmpResult(op, compare(v, r[i]))
	}
}

// compareBool orders FALSE before TRUE.
func compareBool(a, b bool) int {
	switch {
	case a == b:
		return 0
	case !a:
		return -1
	default:
		return 1
	}
}

func compareF64(a, b float64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	default:
		return 0
	}
}

func compareI64(a, b int64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	default:
		return 0
	}
}

func cmpResult(op Op, c int) bool {
	switch op {
	case OpEq:
		return c == 0
	case OpNe:
		return c != 0
	case OpLt:
		return c < 0
	case OpLe:
		return c <= 0
	case OpGt:
		return c > 0
	case OpGe:
		return c >= 0
	}
	return false
}

// UnaryOp is NOT or numeric negation.
type UnaryOp struct {
	Op Op
	E  Expr
}

// NewUnaryOp builds and type-checks a unary operation.
func NewUnaryOp(op Op, e Expr) (Expr, error) {
	switch op {
	case OpNot:
		if e.Type() != types.Bool {
			return nil, fmt.Errorf("expr: NOT requires a boolean operand, got %s", e.Type())
		}
	case OpNeg:
		if !e.Type().IsNumeric() {
			return nil, fmt.Errorf("expr: unary - requires a numeric operand, got %s", e.Type())
		}
	default:
		return nil, fmt.Errorf("expr: %s is not a unary operator", op)
	}
	return &UnaryOp{Op: op, E: e}, nil
}

// Type implements Expr.
func (u *UnaryOp) Type() types.T { return u.E.Type() }

// String implements Expr.
func (u *UnaryOp) String() string { return fmt.Sprintf("(%s %s)", u.Op, u.E) }

func (u *UnaryOp) eval(ev *Evaluator, batch *vector.Batch) (*vector.Vector, error) {
	in, err := u.E.eval(ev, batch)
	if err != nil {
		return nil, err
	}
	out := ev.result(u.Type(), in.Len())
	switch {
	case u.Op == OpNot:
		o, b := out.Bools(), in.Bools()
		for i, v := range b {
			o[i] = !v
		}
	case in.Type() == types.Float32:
		o, s := out.Float32s(), in.Float32s()
		for i, v := range s {
			o[i] = -v
		}
	case in.Type() == types.Float64:
		o, s := out.Float64s(), in.Float64s()
		for i, v := range s {
			o[i] = -v
		}
	case in.Type() == types.Int32:
		o, s := out.Int32s(), in.Int32s()
		for i, v := range s {
			o[i] = -v
		}
	case in.Type() == types.Int64:
		o, s := out.Int64s(), in.Int64s()
		for i, v := range s {
			o[i] = -v
		}
	}
	orNulls(out, in)
	return out, nil
}
