// Package expr implements typed, vectorized expression evaluation for the
// query engine: column references, literals, arithmetic, comparisons,
// boolean logic, CASE, casts and scalar functions (including the activation
// functions ML-To-SQL emits). Expressions are bound against a schema at plan
// time, so evaluation is type-checked before the first batch flows.
package expr

import (
	"fmt"
	"math"
	"strings"

	"indbml/internal/engine/types"
	"indbml/internal/engine/vector"
)

// Expr is a bound expression. A bound tree is immutable, so any number of
// operators and goroutines may share it; evaluation state lives in an
// Evaluator.
type Expr interface {
	// Type returns the expression's result type.
	Type() types.T
	// String renders the expression as SQL-ish text for EXPLAIN output.
	String() string
	// eval computes one output value per row of b, taking the result
	// vectors of the node and its subtree from ev in evaluation order.
	eval(ev *Evaluator, b *vector.Batch) (*vector.Vector, error)
}

// ColRef reads column Idx of the input batch.
type ColRef struct {
	Idx  int
	Name string
	Typ  types.T
}

// NewColRef constructs a column reference.
func NewColRef(idx int, name string, t types.T) *ColRef {
	return &ColRef{Idx: idx, Name: name, Typ: t}
}

// Type implements Expr.
func (c *ColRef) Type() types.T { return c.Typ }

// eval returns the batch's vector without copying.
func (c *ColRef) eval(_ *Evaluator, b *vector.Batch) (*vector.Vector, error) {
	if c.Idx >= len(b.Vecs) {
		return nil, fmt.Errorf("expr: column %d (%s) out of range (batch has %d)", c.Idx, c.Name, len(b.Vecs))
	}
	return b.Vecs[c.Idx], nil
}

// String implements Expr.
func (c *ColRef) String() string {
	if c.Name != "" {
		return c.Name
	}
	return fmt.Sprintf("$%d", c.Idx)
}

// Const is a literal value broadcast to the batch length.
type Const struct {
	Val types.Datum
}

// NewConst constructs a literal expression.
func NewConst(d types.Datum) *Const { return &Const{Val: d} }

// Type implements Expr.
func (c *Const) Type() types.T { return c.Val.Type }

// eval fills the vector's whole array when a batch outgrows it and only
// re-lengths it after that: consumers only narrow it in place, moving
// constants onto constants. NULL marks do not survive re-lengthing.
func (c *Const) eval(ev *Evaluator, b *vector.Batch) (*vector.Vector, error) {
	n := b.Len()
	v := ev.slot(c.Val.Type, 0)
	if c.Val.Null || v.Cap() < n {
		v.Reset()
		v.Resize(n)
		v.SetLen(v.Cap())
		for r := range v.Len() {
			v.SetDatum(r, c.Val)
		}
	}
	v.SetLen(n)
	return v, nil
}

// String implements Expr.
func (c *Const) String() string {
	if c.Val.Type == types.String {
		return "'" + c.Val.S + "'"
	}
	return c.Val.String()
}

// Cast converts its input to a target type.
type Cast struct {
	E  Expr
	To types.T
}

// NewCast constructs a cast expression.
func NewCast(e Expr, to types.T) Expr {
	if e.Type() == to {
		return e
	}
	return &Cast{E: e, To: to}
}

// Type implements Expr.
func (c *Cast) Type() types.T { return c.To }

func (c *Cast) eval(ev *Evaluator, b *vector.Batch) (*vector.Vector, error) {
	in, err := c.E.eval(ev, b)
	if err != nil {
		return nil, err
	}
	out := ev.result(c.To, in.Len())
	return out, castInto(ev, out, in)
}

// castInto converts in into out, a vector of another type with in's length
// and no NULLs. Numeric and boolean pairs convert with typed loops: floats
// truncate toward zero into integers under the narrowing rule of fitsInt, a
// number is TRUE when it is non-zero, TRUE is 1. Any value renders into
// VARCHAR; VARCHAR converts to nothing else. A value that does not fit
// fails the cast only on a row ev keeps.
func castInto(ev *Evaluator, out, in *vector.Vector) error {
	var err error
	switch {
	case out.Type() == types.String:
		s := out.Strings()
		for i := range s {
			if !in.NullAt(i) {
				s[i] = in.Datum(i).String()
			}
		}
	case in.Type() == types.Bool:
		castBools(out, in.Bools())
	case in.Type() == types.Int32:
		err = castNumbers(ev, out, in.Int32s(), in.Nulls())
	case in.Type() == types.Int64:
		err = castNumbers(ev, out, in.Int64s(), in.Nulls())
	case in.Type() == types.Float32:
		err = castNumbers(ev, out, in.Float32s(), in.Nulls())
	case in.Type() == types.Float64:
		err = castNumbers(ev, out, in.Float64s(), in.Nulls())
	default:
		return errCannotCast(in.Type(), out.Type())
	}
	if err != nil {
		return err
	}
	orNulls(out, in)
	return nil
}

func errCannotCast(from, to types.T) error {
	return fmt.Errorf("expr: cannot cast %s to %s", from, to)
}

type number interface {
	int32 | int64 | float32 | float64
}

// castNumbers converts src into out; a value at a NULL slot of src, or on a
// row ev does not keep, may convert to anything but never fails the cast.
func castNumbers[S number](ev *Evaluator, out *vector.Vector, src []S, nulls []bool) error {
	switch out.Type() {
	case types.Bool:
		o := out.Bools()
		for i, x := range src {
			o[i] = x != 0
		}
	case types.Int32:
		return toInt(ev, out.Int32s(), src, nulls, types.Int32)
	case types.Int64:
		return toInt(ev, out.Int64s(), src, nulls, types.Int64)
	case types.Float32:
		toFloat(out.Float32s(), src)
	case types.Float64:
		toFloat(out.Float64s(), src)
	}
	return nil
}

func toInt[D int32 | int64, S number](ev *Evaluator, dst []D, src []S, nulls []bool, t types.T) error {
	for i, x := range src {
		if !fitsInt(x, t) && (nulls == nil || !nulls[i]) && ev.kept(i) {
			return errOutOfRange(x, t)
		}
		dst[i] = D(int64(x))
	}
	return nil
}

// fitsInt is the one narrowing rule, shared by the CAST kernels, constant
// folding (which runs them) and INSERT's literal cells: x converts to
// integer type t (INTEGER or BIGINT) when x truncated toward zero lies in
// t's range. NaN and ±Inf fit no integer type. The comparison runs in
// float64, which is exact for every integer source but a BIGINT near
// BIGINT's bounds — and a BIGINT is never narrowed to BIGINT.
func fitsInt[S number](x S, t types.T) bool {
	f := float64(x)
	if t == types.Int32 {
		return f > math.MinInt32-1 && f < math.MaxInt32+1
	}
	return f >= math.MinInt64 && f < -math.MinInt64
}

func errOutOfRange[S number](x S, t types.T) error {
	return fmt.Errorf("expr: %v is out of range for %s", x, t)
}

// toFloat converts to a float type through float64; a value past REAL's
// range becomes ±Inf, as IEEE conversion does.
func toFloat[D float32 | float64, S number](dst []D, src []S) {
	for i, x := range src {
		dst[i] = D(float64(x))
	}
}

func castBools(out *vector.Vector, src []bool) {
	switch out.Type() {
	case types.Int32:
		fromBools(out.Int32s(), src)
	case types.Int64:
		fromBools(out.Int64s(), src)
	case types.Float32:
		fromBools(out.Float32s(), src)
	case types.Float64:
		fromBools(out.Float64s(), src)
	}
}

func fromBools[D number](dst []D, src []bool) {
	for i, x := range src {
		dst[i] = 0
		if x {
			dst[i] = 1
		}
	}
}

// String implements Expr.
func (c *Cast) String() string { return fmt.Sprintf("CAST(%s AS %s)", c.E, c.To) }

// IsNull tests values for NULL (IS NULL / IS NOT NULL). Unlike comparisons,
// its result is never NULL itself.
type IsNull struct {
	E   Expr
	Not bool
}

// NewIsNull constructs an IS [NOT] NULL test.
func NewIsNull(e Expr, not bool) *IsNull { return &IsNull{E: e, Not: not} }

// Type implements Expr.
func (i *IsNull) Type() types.T { return types.Bool }

func (i *IsNull) eval(ev *Evaluator, b *vector.Batch) (*vector.Vector, error) {
	in, err := i.E.eval(ev, b)
	if err != nil {
		return nil, err
	}
	out := ev.result(types.Bool, in.Len())
	o := out.Bools()
	for r := range o {
		o[r] = in.NullAt(r) != i.Not
	}
	return out, nil
}

// String implements Expr.
func (i *IsNull) String() string {
	if i.Not {
		return fmt.Sprintf("(%s IS NOT NULL)", i.E)
	}
	return fmt.Sprintf("(%s IS NULL)", i.E)
}

// Case is a searched CASE expression. ML-To-SQL's dense input function
// (Listing 3) selects the i-th input column per node with exactly this
// construct.
type Case struct {
	Whens []When
	Else  Expr // nil means NULL
	Typ   types.T
}

// When is one WHEN cond THEN value arm.
type When struct {
	Cond Expr
	Then Expr
}

// NewCase builds a CASE expression, promoting all arm types to a common
// result type.
func NewCase(whens []When, elseE Expr) (*Case, error) {
	if len(whens) == 0 {
		return nil, fmt.Errorf("expr: CASE requires at least one WHEN")
	}
	t := whens[0].Then.Type()
	for _, w := range whens[1:] {
		var err error
		if t, err = types.Promote(t, w.Then.Type()); err != nil {
			return nil, fmt.Errorf("expr: CASE arms: %w", err)
		}
	}
	if elseE != nil {
		var err error
		if t, err = types.Promote(t, elseE.Type()); err != nil {
			return nil, fmt.Errorf("expr: CASE else: %w", err)
		}
	}
	for _, w := range whens {
		if w.Cond.Type() != types.Bool {
			return nil, fmt.Errorf("expr: CASE condition must be boolean, got %s", w.Cond.Type())
		}
	}
	return &Case{Whens: whens, Else: elseE, Typ: t}, nil
}

// Type implements Expr.
func (c *Case) Type() types.T { return c.Typ }

// eval evaluates every arm over the full batch and assembles the result by
// typed select-by-mask: each arm copies in the rows whose condition is TRUE
// and no earlier arm took, the ELSE (or NULL) fills the rest. A condition
// keeps the rows no earlier arm took, an arm only the rows it takes, so a
// narrowing cast fails only on a row it decides.
func (c *Case) eval(ev *Evaluator, b *vector.Batch) (*vector.Vector, error) {
	n := b.Len()
	out := ev.result(c.Typ, n)
	doneV := ev.result(types.Bool, n) // rows an arm took
	takeV := ev.result(types.Bool, n) // rows the current arm takes
	done, take := doneV.Bools(), takeV.Bools()
	clear(done)
	for _, w := range c.Whens {
		cond, err := ev.evalKept(w.Cond, b, doneV, false)
		if err != nil {
			return nil, err
		}
		condNulls := cond.Nulls()
		for r, x := range cond.Bools() {
			t := x && !done[r] && (condNulls == nil || !condNulls[r])
			take[r] = t
			done[r] = done[r] || t
		}
		then, err := ev.evalAs(w.Then, c.Typ, b, takeV, true)
		if err != nil {
			return nil, err
		}
		pick(out, then, take)
	}
	for r, d := range done {
		take[r] = !d
	}
	if c.Else == nil {
		for r, t := range take {
			if t {
				out.SetNull(r)
			}
		}
		return out, nil
	}
	els, err := ev.evalAs(c.Else, c.Typ, b, takeV, true)
	if err != nil {
		return nil, err
	}
	pick(out, els, take)
	return out, nil
}

// pick copies the rows of src where take is set into out, NULLs included.
// out must have no NULL among those rows yet.
func pick(out, src *vector.Vector, take []bool) {
	switch out.Type() {
	case types.Bool:
		pickRows(out.Bools(), src.Bools(), take)
	case types.Int32:
		pickRows(out.Int32s(), src.Int32s(), take)
	case types.Int64:
		pickRows(out.Int64s(), src.Int64s(), take)
	case types.Float32:
		pickRows(out.Float32s(), src.Float32s(), take)
	case types.Float64:
		pickRows(out.Float64s(), src.Float64s(), take)
	case types.String:
		pickRows(out.Strings(), src.Strings(), take)
	}
	if nulls := src.Nulls(); nulls != nil {
		for r, t := range take {
			if t && nulls[r] {
				out.SetNull(r)
			}
		}
	}
}

func pickRows[T any](dst, src []T, take []bool) {
	for r, t := range take {
		if t {
			dst[r] = src[r]
		}
	}
}

// String implements Expr.
func (c *Case) String() string {
	var sb strings.Builder
	sb.WriteString("CASE")
	for _, w := range c.Whens {
		fmt.Fprintf(&sb, " WHEN %s THEN %s", w.Cond, w.Then)
	}
	if c.Else != nil {
		fmt.Fprintf(&sb, " ELSE %s", c.Else)
	}
	sb.WriteString(" END")
	return sb.String()
}
