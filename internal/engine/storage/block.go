// Package storage implements the engine's column store: tables are split
// into partitions (the unit of parallelism, Sec. 4.4/5.2), partitions hold
// one chunk per column, and chunks are sequences of compressed blocks, each
// carrying a MinMax zone map (Moerkotte's Small Materialized Aggregates,
// which the paper relies on for block pruning of the model table).
package storage

import (
	"cmp"
	"math"

	"indbml/internal/engine/types"
	"indbml/internal/engine/vector"
)

// BlockSize is the number of values per column block.
const BlockSize = 8192

// encoding identifies the physical layout of a block.
type encoding uint8

const (
	encRaw encoding = iota
	// encRLE stores (value, runLength) pairs; extremely effective on the
	// model table, where e.g. the Layer column repeats for every edge of a
	// layer, and on sparse weight columns full of zeros.
	encRLE
	// encConst stores a single value for the whole block.
	encConst
	// encDict stores string blocks as a dictionary plus int32 codes.
	encDict
)

// block is one compressed run of up to BlockSize values of a single column,
// together with its zone map. Blocks are immutable once built.
type block struct {
	typ types.T
	enc encoding
	n   int
	min types.Datum // zone map; Null for empty/string-less support
	max types.Datum
	// nulls flags NULL positions; nil when the block has none. The typed
	// payloads hold arbitrary values at NULL slots.
	nulls []bool

	// Typed payload, one slice populated per type: n values (encRaw), one
	// value per run (encRLE, lengths in runLen) or a single value (encConst).
	b   []bool
	i32 []int32
	i64 []int64
	f32 []float32
	f64 []float64
	str []string

	runLen []int32

	// encDict payload.
	dict  []string
	codes []int32
}

// buildBlock compresses vals[lo:hi] of vec (hi > lo) into a block, choosing
// the cheapest encoding from one probe of the run structure: a run is a
// maximal stretch of NULLs or of bit-identical values.
func buildBlock(vec *vector.Vector, lo, hi int) *block {
	b := &block{typ: vec.Type(), n: hi - lo}
	if src := vec.Nulls(); src != nil {
		for i, isNull := range src[lo:hi] {
			if isNull {
				if b.nulls == nil {
					b.nulls = make([]bool, hi-lo)
				}
				b.nulls[i] = true
			}
		}
	}
	switch b.typ {
	case types.Bool:
		b.b = encodeTyped(b, vec.Bools()[lo:hi], same[bool])
	case types.Int32:
		vals := vec.Int32s()[lo:hi]
		b.i32 = encodeTyped(b, vals, same[int32])
		b.zoneMap(zoneMap(vals, b.nulls, types.Int32Datum))
	case types.Int64:
		vals := vec.Int64s()[lo:hi]
		b.i64 = encodeTyped(b, vals, same[int64])
		b.zoneMap(zoneMap(vals, b.nulls, types.Int64Datum))
	case types.Float32:
		vals := vec.Float32s()[lo:hi]
		b.f32 = encodeTyped(b, vals, sameF32)
		b.zoneMap(zoneMap(vals, b.nulls, types.Float32Datum))
	case types.Float64:
		vals := vec.Float64s()[lo:hi]
		b.f64 = encodeTyped(b, vals, sameF64)
		b.zoneMap(zoneMap(vals, b.nulls, types.Float64Datum))
	case types.String:
		b.encodeStrings(vec.Strings()[lo:hi])
	}
	return b
}

func same[T comparable](a, b T) bool { return a == b }

// Floats compare by bits so NaN payloads and signed zeros survive a round
// trip through RLE and const blocks.
func sameF32(a, b float32) bool { return math.Float32bits(a) == math.Float32bits(b) }
func sameF64(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// countRuns counts the runs of vals: NULL slots equal each other and nothing
// else.
func countRuns[T any](vals []T, nulls []bool, eq func(a, b T) bool) int {
	runs := 1
	for i := 1; i < len(vals); i++ {
		if !sameSlot(vals, nulls, i, eq) {
			runs++
		}
	}
	return runs
}

// sameSlot reports whether slot i continues the run of slot i-1.
func sameSlot[T any](vals []T, nulls []bool, i int, eq func(a, b T) bool) bool {
	if nulls != nil && (nulls[i] || nulls[i-1]) {
		return nulls[i] == nulls[i-1]
	}
	return eq(vals[i], vals[i-1])
}

// encodeTyped picks const, RLE or raw for a non-string block and returns its
// payload (runLen is set for RLE).
func encodeTyped[T any](b *block, vals []T, eq func(a, b T) bool) []T {
	runs := countRuns(vals, b.nulls, eq)
	switch {
	case runs == 1:
		b.enc = encConst
		return []T{vals[0]}
	case runs*3 < b.n:
		b.enc = encRLE
		out := make([]T, 1, runs)
		out[0] = vals[0]
		b.runLen = make([]int32, 1, runs)
		b.runLen[0] = 1
		for i := 1; i < len(vals); i++ {
			if sameSlot(vals, b.nulls, i, eq) {
				b.runLen[len(b.runLen)-1]++
			} else {
				out = append(out, vals[i])
				b.runLen = append(b.runLen, 1)
			}
		}
		return out
	default:
		b.enc = encRaw
		return append([]T(nil), vals...)
	}
}

func (b *block) encodeStrings(vals []string) {
	runs := countRuns(vals, b.nulls, same[string])
	switch {
	case runs == 1:
		b.enc = encConst
		b.str = []string{vals[0]}
	case runs*2 < b.n:
		b.enc = encDict
		index := map[string]int32{}
		b.codes = make([]int32, len(vals))
		for i, s := range vals {
			code, ok := index[s]
			if !ok {
				code = int32(len(b.dict))
				index[s] = code
				b.dict = append(b.dict, s)
			}
			b.codes[i] = code
		}
	default:
		b.enc = encRaw
		b.str = append([]string(nil), vals...)
	}
}

// zoneMap computes a numeric block's [min, max] with Datum ordering: NULL
// sorts first, so any NULL makes min NULL (unbounded below) and an all-NULL
// block has NULL for both; among values, the first one seen is kept on ties
// and NaN never replaces or is replaced.
func zoneMap[T cmp.Ordered](vals []T, nulls []bool, datum func(T) types.Datum) (mn, mx types.Datum, ok bool) {
	first := 0
	for nulls != nil && first < len(vals) && nulls[first] {
		first++
	}
	if first == len(vals) {
		return types.Datum{}, types.Datum{}, false
	}
	lo, hi := vals[first], vals[first]
	for i := first + 1; i < len(vals); i++ {
		if nulls != nil && nulls[i] {
			continue
		}
		if v := vals[i]; v < lo {
			lo = v
		} else if v > hi {
			hi = v
		}
	}
	return datum(lo), datum(hi), true
}

// zoneMap stores zoneMap's result, applying the NULL rules.
func (b *block) zoneMap(mn, mx types.Datum, ok bool) {
	null := types.NullDatum(b.typ)
	switch {
	case !ok:
		b.min, b.max = null, null
	case b.nulls != nil:
		b.min, b.max = null, mx
	default:
		b.min, b.max = mn, mx
	}
}

// decodeInto appends values [lo:hi) of the block to dst, restoring NULLs.
func (b *block) decodeInto(dst *vector.Vector, lo, hi int) {
	at := dst.Len()
	dst.Resize(at + hi - lo)
	switch b.typ {
	case types.Bool:
		decode(b, b.b, dst.Bools()[at:], lo, hi)
	case types.Int32:
		decode(b, b.i32, dst.Int32s()[at:], lo, hi)
	case types.Int64:
		decode(b, b.i64, dst.Int64s()[at:], lo, hi)
	case types.Float32:
		decode(b, b.f32, dst.Float32s()[at:], lo, hi)
	case types.Float64:
		decode(b, b.f64, dst.Float64s()[at:], lo, hi)
	case types.String:
		if b.enc != encDict {
			decode(b, b.str, dst.Strings()[at:], lo, hi)
			break
		}
		out := dst.Strings()[at:]
		for i, code := range b.codes[lo:hi] {
			out[i] = b.dict[code]
		}
	}
	if b.nulls != nil {
		for i, isNull := range b.nulls[lo:hi] {
			if isNull {
				dst.SetNull(at + i)
			}
		}
	}
}

// decode writes values [lo:hi) of a const, raw or RLE payload to out.
func decode[T any](b *block, vals, out []T, lo, hi int) {
	switch b.enc {
	case encConst:
		fill(out[:hi-lo], vals[0])
	case encRaw:
		copy(out, vals[lo:hi])
	case encRLE:
		pos := 0
		for r, rl := range b.runLen {
			end := pos + int(rl)
			if end > lo {
				fill(out[max(lo, pos)-lo:min(hi, end)-lo], vals[r])
			}
			if pos = end; pos >= hi {
				break
			}
		}
	}
}

func fill[T any](dst []T, v T) {
	for i := range dst {
		dst[i] = v
	}
}

// memSize approximates the compressed footprint of the block in bytes.
func (b *block) memSize() int64 {
	var s int64
	s += int64(len(b.b)) + int64(len(b.i32))*4 + int64(len(b.i64))*8 +
		int64(len(b.f32))*4 + int64(len(b.f64))*8 + int64(len(b.runLen))*4 +
		int64(len(b.codes))*4 + int64(len(b.nulls))
	for _, v := range b.str {
		s += int64(len(v)) + 16
	}
	for _, v := range b.dict {
		s += int64(len(v)) + 16
	}
	return s
}

// overlaps reports whether the block's zone map intersects [lo, hi]; a nil
// bound is unbounded. Blocks without zone maps always overlap.
func (b *block) overlaps(lo, hi *types.Datum) bool {
	if b.min.Type == types.Unknown {
		return true
	}
	if lo != nil && b.max.Compare(*lo) < 0 {
		return false
	}
	if hi != nil && b.min.Compare(*hi) > 0 {
		return false
	}
	return true
}
