package expr

import (
	"fmt"
	"strconv"

	"indbml/internal/engine/types"
	"indbml/internal/engine/vector"
)

// Literal writers: INSERT stores a VALUES cell that is one literal token
// straight into its column's vector. Each writer gives the value — or the
// error — that binding the literal, casting it to the column's type and
// folding would give, through the same typing and narrowing rules, without
// building an expression.

// ParseNumber types a numeric literal as every binder does: text without
// '.', 'e' or 'E' is an integer, INTEGER when its magnitude fits INTEGER and
// BIGINT otherwise; any other number is DOUBLE. A literal's minus sign is
// part of its text but not of its magnitude, so -2147483648 is a BIGINT, as
// the negation of the BIGINT 2147483648 would be.
func ParseNumber(text string) (types.Datum, error) {
	if isInteger(text) {
		v, err := strconv.ParseInt(text, 10, 64)
		if err != nil {
			return types.Datum{}, fmt.Errorf("expr: invalid integer literal %q", text)
		}
		if v > -1<<31 && v < 1<<31 {
			return types.Int32Datum(int32(v)), nil
		}
		return types.Int64Datum(v), nil
	}
	v, err := strconv.ParseFloat(text, 64)
	if err != nil {
		return types.Datum{}, fmt.Errorf("expr: invalid numeric literal %q", text)
	}
	return types.Float64Datum(v), nil
}

func isInteger(text string) bool {
	for i := 0; i < len(text); i++ {
		if c := text[i]; c == '.' || c == 'e' || c == 'E' {
			return false
		}
	}
	return true
}

// SetNumber writes the numeric literal text, cast to v's type, into row r
// of v.
func SetNumber(v *vector.Vector, r int, text string) error {
	d, err := ParseNumber(text)
	switch {
	case err != nil:
		return err
	case v.Type() == types.String:
		v.Strings()[r] = d.String() // as castInto renders it
		return nil
	case d.Type == types.Float64:
		return setNumber(v, r, d.F64)
	case d.Type == types.Int32:
		return setNumber(v, r, int32(d.I64))
	default:
		return setNumber(v, r, d.I64)
	}
}

// setNumber stores x, cast to v's numeric or boolean type as castNumbers
// casts it.
func setNumber[S number](v *vector.Vector, r int, x S) error {
	switch v.Type() {
	case types.Bool:
		v.Bools()[r] = x != 0
	case types.Int32:
		if !fitsInt(x, types.Int32) {
			return errOutOfRange(x, types.Int32)
		}
		v.Int32s()[r] = int32(int64(x))
	case types.Int64:
		// An integer always fits; fitsInt's float comparison would round
		// the largest BIGINT up past the range.
		if _, float := any(x).(float64); float && !fitsInt(x, types.Int64) {
			return errOutOfRange(x, types.Int64)
		}
		v.Int64s()[r] = int64(x)
	case types.Float32:
		v.Float32s()[r] = float32(float64(x))
	case types.Float64:
		v.Float64s()[r] = float64(x)
	}
	return nil
}

// SetString writes the string literal s into row r of v, which must be a
// VARCHAR column: a string casts to no other type.
func SetString(v *vector.Vector, r int, s string) error {
	if v.Type() != types.String {
		return errCannotCast(types.String, v.Type())
	}
	v.Strings()[r] = s
	return nil
}

// SetBool writes TRUE or FALSE, cast to v's type, into row r of v: a
// number is 1 or 0.
func SetBool(v *vector.Vector, r int, b bool) {
	switch v.Type() {
	case types.Bool:
		v.Bools()[r] = b
	case types.String:
		v.Strings()[r] = types.BoolDatum(b).String() // as castInto renders it
	default:
		var n int32
		if b {
			n = 1
		}
		_ = setNumber(v, r, n) // 0 and 1 fit every numeric type
	}
}
