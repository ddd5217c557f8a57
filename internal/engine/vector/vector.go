// Package vector implements the typed column vectors and record batches the
// query engine operates on. Following the X100 execution model, operators
// exchange data in batches of at most Size tuples, stored column-wise so that
// per-column inner loops stay tight and cache resident.
package vector

import (
	"fmt"

	"indbml/internal/engine/types"
)

// Size is the engine's vector length: the maximum number of tuples in a
// batch. The paper fixes the batch size of all inference approaches to the
// engine's vector size of 1024, so we do the same.
const Size = 1024

// Vector is a typed column of up to cap values. Only the slice matching the
// vector's type is populated. A nil nulls slice means "no NULLs"; this is the
// common case and keeps hot loops free of per-value branches.
type Vector struct {
	typ   types.T
	n     int
	nulls []bool
	// nullBuf keeps a dropped bitmap's allocation so a reused vector that
	// sees NULLs again does not allocate one per batch.
	nullBuf []bool

	b   []bool
	i32 []int32
	i64 []int64
	f32 []float32
	f64 []float64
	str []string
}

// New returns an empty vector of type t with the given capacity.
func New(t types.T, capacity int) *Vector {
	v := &Vector{typ: t}
	switch t {
	case types.Bool:
		v.b = make([]bool, capacity)
	case types.Int32:
		v.i32 = make([]int32, capacity)
	case types.Int64:
		v.i64 = make([]int64, capacity)
	case types.Float32:
		v.f32 = make([]float32, capacity)
	case types.Float64:
		v.f64 = make([]float64, capacity)
	case types.String:
		v.str = make([]string, capacity)
	default:
		panic(fmt.Sprintf("vector: cannot allocate vector of type %v", t))
	}
	return v
}

// Type returns the vector's value type.
func (v *Vector) Type() types.T { return v.typ }

// Len returns the number of valid values.
func (v *Vector) Len() int { return v.n }

// Cap returns the allocated capacity.
func (v *Vector) Cap() int {
	switch v.typ {
	case types.Bool:
		return cap(v.b)
	case types.Int32:
		return cap(v.i32)
	case types.Int64:
		return cap(v.i64)
	case types.Float32:
		return cap(v.f32)
	case types.Float64:
		return cap(v.f64)
	case types.String:
		return cap(v.str)
	}
	return 0
}

// SetLen sets the number of valid values. It must not exceed the capacity.
func (v *Vector) SetLen(n int) {
	switch v.typ {
	case types.Bool:
		v.b = v.b[:n]
	case types.Int32:
		v.i32 = v.i32[:n]
	case types.Int64:
		v.i64 = v.i64[:n]
	case types.Float32:
		v.f32 = v.f32[:n]
	case types.Float64:
		v.f64 = v.f64[:n]
	case types.String:
		v.str = v.str[:n]
	}
	if v.nulls != nil {
		old := len(v.nulls)
		if n > cap(v.nulls) {
			v.nulls = append(v.nulls[:cap(v.nulls)], make([]bool, n-cap(v.nulls))...)
		}
		v.nulls = v.nulls[:n]
		if n > old {
			clear(v.nulls[old:])
		}
	}
	v.n = n
}

// Resize sets the number of valid values to n, growing the allocation when
// needed. Values past the old length are unspecified and non-NULL; callers
// overwrite them through the typed accessors.
func (v *Vector) Resize(n int) {
	if n > v.Cap() {
		v.grow(n - v.n)
	}
	v.SetLen(n)
}

// Reset empties the vector for reuse, keeping its allocation.
func (v *Vector) Reset() {
	v.SetLen(0)
	v.dropNulls()
}

// dropNulls returns the vector to the no-NULLs state, keeping the bitmap's
// allocation for materializeNulls.
func (v *Vector) dropNulls() {
	if v.nulls != nil {
		v.nullBuf, v.nulls = v.nulls[:0], nil
	}
}

// materializeNulls makes sure the vector carries an (all-false, unless
// already present) bitmap of its current length.
func (v *Vector) materializeNulls() {
	if v.nulls != nil {
		return
	}
	if cap(v.nullBuf) >= v.n {
		v.nulls = v.nullBuf[:v.n]
		clear(v.nulls)
		return
	}
	v.nulls = make([]bool, v.n, max(v.n, v.Cap()))
}

// Typed accessors expose the backing slice for vectorized kernels. Callers
// must respect Len(). Accessing the wrong type panics via nil slice indexing,
// which binding-time type checks prevent in practice.

// Bools returns the backing slice of a BOOLEAN vector.
func (v *Vector) Bools() []bool { return v.b[:v.n] }

// Int32s returns the backing slice of an INTEGER vector.
func (v *Vector) Int32s() []int32 { return v.i32[:v.n] }

// Int64s returns the backing slice of a BIGINT vector.
func (v *Vector) Int64s() []int64 { return v.i64[:v.n] }

// Float32s returns the backing slice of a REAL vector.
func (v *Vector) Float32s() []float32 { return v.f32[:v.n] }

// Float64s returns the backing slice of a DOUBLE vector.
func (v *Vector) Float64s() []float64 { return v.f64[:v.n] }

// Strings returns the backing slice of a VARCHAR vector.
func (v *Vector) Strings() []string { return v.str[:v.n] }

// HasNulls reports whether the vector carries a null bitmap.
func (v *Vector) HasNulls() bool { return v.nulls != nil }

// NullAt reports whether value i is NULL.
func (v *Vector) NullAt(i int) bool { return v.nulls != nil && v.nulls[i] }

// SetNull marks value i as NULL, materializing the bitmap on first use.
func (v *Vector) SetNull(i int) {
	v.materializeNulls()
	v.nulls[i] = true
}

// Nulls returns the null bitmap, or nil when the vector has no NULLs.
func (v *Vector) Nulls() []bool {
	if v.nulls == nil {
		return nil
	}
	return v.nulls[:v.n]
}

// AppendDatum appends a dynamically typed value, converting numerics as
// needed. It grows the vector if necessary.
func (v *Vector) AppendDatum(d types.Datum) {
	i := v.n
	v.grow(1)
	v.SetLen(i + 1)
	if d.Null {
		v.SetNull(i)
		return
	}
	v.SetDatum(i, d)
}

// SetDatum stores a value at position i (which must be < Len).
func (v *Vector) SetDatum(i int, d types.Datum) {
	if d.Null {
		v.SetNull(i)
		return
	}
	switch v.typ {
	case types.Bool:
		v.b[i] = d.B
	case types.Int32:
		v.i32[i] = int32(d.Int())
	case types.Int64:
		v.i64[i] = d.Int()
	case types.Float32:
		v.f32[i] = float32(d.Float())
	case types.Float64:
		v.f64[i] = d.Float()
	case types.String:
		v.str[i] = d.S
	}
	if v.nulls != nil {
		v.nulls[i] = false
	}
}

// Datum returns value i as a Datum.
func (v *Vector) Datum(i int) types.Datum {
	if v.NullAt(i) {
		return types.NullDatum(v.typ)
	}
	switch v.typ {
	case types.Bool:
		return types.BoolDatum(v.b[i])
	case types.Int32:
		return types.Int32Datum(v.i32[i])
	case types.Int64:
		return types.Int64Datum(v.i64[i])
	case types.Float32:
		return types.Float32Datum(v.f32[i])
	case types.Float64:
		return types.Float64Datum(v.f64[i])
	case types.String:
		return types.StringDatum(v.str[i])
	}
	panic("vector: Datum on unknown type")
}

func (v *Vector) grow(by int) {
	need := v.n + by
	if need <= v.Cap() {
		return
	}
	newCap := v.Cap()*2 + by
	switch v.typ {
	case types.Bool:
		nb := make([]bool, v.n, newCap)
		copy(nb, v.b)
		v.b = nb
	case types.Int32:
		ns := make([]int32, v.n, newCap)
		copy(ns, v.i32)
		v.i32 = ns
	case types.Int64:
		ns := make([]int64, v.n, newCap)
		copy(ns, v.i64)
		v.i64 = ns
	case types.Float32:
		ns := make([]float32, v.n, newCap)
		copy(ns, v.f32)
		v.f32 = ns
	case types.Float64:
		ns := make([]float64, v.n, newCap)
		copy(ns, v.f64)
		v.f64 = ns
	case types.String:
		ns := make([]string, v.n, newCap)
		copy(ns, v.str)
		v.str = ns
	}
	if v.nulls != nil {
		nn := make([]bool, v.n, newCap)
		copy(nn, v.nulls)
		v.nulls = nn
	}
}

// CopyFrom overwrites v with src's values at the positions given by sel (or
// all of src when sel is nil). v is resized to the number of copied values.
func (v *Vector) CopyFrom(src *Vector, sel []int) {
	v.SetLen(0)
	v.dropNulls()
	v.AppendFrom(src, sel)
}

// AppendFrom appends src[j] for each j in sel (or all of src when sel is
// nil) to v. Both vectors must share a type.
func (v *Vector) AppendFrom(src *Vector, sel []int) {
	if sel == nil {
		v.AppendRange(src, 0, src.n)
		return
	}
	at := v.n
	v.Resize(at + len(sel))
	switch v.typ {
	case types.Bool:
		gather(v.b[at:], src.b, sel)
	case types.Int32:
		gather(v.i32[at:], src.i32, sel)
	case types.Int64:
		gather(v.i64[at:], src.i64, sel)
	case types.Float32:
		gather(v.f32[at:], src.f32, sel)
	case types.Float64:
		gather(v.f64[at:], src.f64, sel)
	case types.String:
		gather(v.str[at:], src.str, sel)
	}
	if src.nulls != nil {
		v.materializeNulls()
		gather(v.nulls[at:], src.nulls, sel)
	}
}

// AppendRange appends src[lo:hi] to v. Both vectors must share a type.
func (v *Vector) AppendRange(src *Vector, lo, hi int) {
	at := v.n
	v.Resize(at + hi - lo)
	switch v.typ {
	case types.Bool:
		copy(v.b[at:], src.b[lo:hi])
	case types.Int32:
		copy(v.i32[at:], src.i32[lo:hi])
	case types.Int64:
		copy(v.i64[at:], src.i64[lo:hi])
	case types.Float32:
		copy(v.f32[at:], src.f32[lo:hi])
	case types.Float64:
		copy(v.f64[at:], src.f64[lo:hi])
	case types.String:
		copy(v.str[at:], src.str[lo:hi])
	}
	if src.nulls != nil {
		v.materializeNulls()
		copy(v.nulls[at:], src.nulls[lo:hi])
	}
}

// Scatter writes src[j] to position pos[j] of v for every j, NULLs
// included. Both vectors must share a type.
func (v *Vector) Scatter(pos []int, src *Vector) {
	switch v.typ {
	case types.Bool:
		scatter(v.b, src.b, pos)
	case types.Int32:
		scatter(v.i32, src.i32, pos)
	case types.Int64:
		scatter(v.i64, src.i64, pos)
	case types.Float32:
		scatter(v.f32, src.f32, pos)
	case types.Float64:
		scatter(v.f64, src.f64, pos)
	case types.String:
		scatter(v.str, src.str, pos)
	}
	if src.nulls != nil || v.nulls != nil {
		v.materializeNulls()
		for j, p := range pos {
			v.nulls[p] = src.NullAt(j)
		}
	}
}

func scatter[T any](dst, src []T, pos []int) {
	for j, p := range pos {
		dst[p] = src[j]
	}
}

func gather[T any](dst, src []T, sel []int) {
	for i, j := range sel {
		dst[i] = src[j]
	}
}

// compact keeps only the values at the positions in sel, which must be
// strictly ascending, moving them to the front in place.
func (v *Vector) compact(sel []int) {
	switch v.typ {
	case types.Bool:
		gather(v.b, v.b, sel)
	case types.Int32:
		gather(v.i32, v.i32, sel)
	case types.Int64:
		gather(v.i64, v.i64, sel)
	case types.Float32:
		gather(v.f32, v.f32, sel)
	case types.Float64:
		gather(v.f64, v.f64, sel)
	case types.String:
		gather(v.str, v.str, sel)
	}
	if v.nulls != nil {
		gather(v.nulls, v.nulls, sel)
	}
	v.SetLen(len(sel))
}

// MemSize returns the approximate heap footprint of the vector in bytes,
// used by the memory meter behind the paper's Table 3.
func (v *Vector) MemSize() int64 {
	size := int64(v.Cap()) * int64(v.typ.Width())
	if v.typ == types.String {
		for _, s := range v.str {
			size += int64(len(s))
		}
	}
	if v.nulls != nil {
		size += int64(cap(v.nulls))
	}
	return size
}

// AsFloat64 converts value i of any numeric vector to float64.
func (v *Vector) AsFloat64(i int) float64 {
	switch v.typ {
	case types.Int32:
		return float64(v.i32[i])
	case types.Int64:
		return float64(v.i64[i])
	case types.Float32:
		return float64(v.f32[i])
	case types.Float64:
		return v.f64[i]
	}
	panic(fmt.Sprintf("vector: AsFloat64 on %v vector", v.typ))
}

// AsInt64 converts value i of any numeric vector to int64.
func (v *Vector) AsInt64(i int) int64 {
	switch v.typ {
	case types.Int32:
		return int64(v.i32[i])
	case types.Int64:
		return v.i64[i]
	case types.Float32:
		return int64(v.f32[i])
	case types.Float64:
		return int64(v.f64[i])
	}
	panic(fmt.Sprintf("vector: AsInt64 on %v vector", v.typ))
}
