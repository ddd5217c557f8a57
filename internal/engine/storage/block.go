// Package storage implements the engine's column store: tables are split
// into partitions (the unit of parallelism, Sec. 4.4/5.2), partitions hold
// one chunk per column, and chunks are sequences of compressed blocks, each
// carrying a MinMax zone map (Moerkotte's Small Materialized Aggregates,
// which the paper relies on for block pruning of the model table).
package storage

import (
	"cmp"
	"unsafe"

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

// buildBlock compresses vals[lo:hi] of vec (hi > lo) into a block.
func buildBlock(vec *vector.Vector, lo, hi int) *block {
	return buildStrided(vec, span{first: lo, stride: 1, n: hi - lo})
}

// span addresses a block's n values in a source vector: first,
// first+stride, … — a run of rows, or one partition's share of an Append.
type span struct{ first, stride, n int }

// buildStrided compresses the values of vec at s into a block, choosing the
// cheapest encoding from one typed pass that counts the runs — a run is a
// maximal stretch of NULLs or of bit-identical values — and computes the
// zone map. Only a raw block copies the values; RLE and const blocks keep
// one per run.
func buildStrided(vec *vector.Vector, s span) *block {
	b := &block{typ: vec.Type(), n: s.n}
	if src := vec.Nulls(); src != nil {
		for j, i := 0, s.first; j < s.n; j, i = j+1, i+s.stride {
			if src[i] {
				if b.nulls == nil {
					b.nulls = make([]bool, s.n)
				}
				b.nulls[j] = true
			}
		}
	}
	switch b.typ {
	case types.Bool:
		vals := vec.Bools()
		b.b = encode(b, vals, vals, s, countRuns(vals, b.nulls, s))
	case types.Int32:
		vals := vec.Int32s()
		b.i32 = encodeOrdered(b, vals, vals, s, types.Int32Datum)
	case types.Int64:
		vals := vec.Int64s()
		b.i64 = encodeOrdered(b, vals, vals, s, types.Int64Datum)
	case types.Float32:
		vals := vec.Float32s()
		b.f32 = encodeOrdered(b, vals, f32bits(vals), s, types.Float32Datum)
	case types.Float64:
		vals := vec.Float64s()
		b.f64 = encodeOrdered(b, vals, f64bits(vals), s, types.Float64Datum)
	case types.String:
		b.encodeStrings(vec.Strings(), s)
	}
	return b
}

// f32bits and f64bits view a float slice as its IEEE bit patterns, so runs
// compare floats bit for bit with ==.
func f32bits(f []float32) []uint32 {
	return unsafe.Slice((*uint32)(unsafe.Pointer(unsafe.SliceData(f))), len(f))
}

func f64bits(f []float64) []uint64 {
	return unsafe.Slice((*uint64)(unsafe.Pointer(unsafe.SliceData(f))), len(f))
}

// encodeOrdered encodes a numeric block and sets its zone map. keys holds
// the values' bit patterns — vals itself for integers, the IEEE bits for
// floats, so NaN payloads and signed zeros survive RLE and const blocks.
func encodeOrdered[T cmp.Ordered, K comparable](b *block, vals []T, keys []K, s span, datum func(T) types.Datum) []T {
	runs, lo, hi, ok := scan(vals, keys, b.nulls, s)
	b.zoneMap(datum(lo), datum(hi), ok)
	return encode(b, vals, keys, s, runs)
}

// scan is the one pass over a numeric block: its run count, and its
// [min, max] with Datum ordering among the non-NULL values (ok is false
// when there are none). The first value seen is kept on ties, and NaN never
// replaces or is replaced.
func scan[T cmp.Ordered, K comparable](vals []T, keys []K, nulls []bool, s span) (runs int, lo, hi T, ok bool) {
	i := s.first
	runs = 1
	if nulls == nil {
		lo, hi, prev := vals[i], vals[i], keys[i]
		for j := 1; j < s.n; j++ {
			i += s.stride
			if k := keys[i]; k != prev {
				runs, prev = runs+1, k
			}
			if v := vals[i]; v < lo {
				lo = v
			} else if v > hi {
				hi = v
			}
		}
		return runs, lo, hi, true
	}
	for j := 0; j < s.n; j, i = j+1, i+s.stride {
		if j > 0 && !continues(keys, nulls, j, i, s.stride) {
			runs++
		}
		if nulls[j] {
			continue
		}
		switch v := vals[i]; {
		case !ok:
			lo, hi, ok = v, v, true
		case v < lo:
			lo = v
		case v > hi:
			hi = v
		}
	}
	return runs, lo, hi, ok
}

// countRuns counts the runs of a block without a zone map.
func countRuns[K comparable](keys []K, nulls []bool, s span) int {
	runs := 1
	for j, i := 1, s.first+s.stride; j < s.n; j, i = j+1, i+s.stride {
		if !continues(keys, nulls, j, i, s.stride) {
			runs++
		}
	}
	return runs
}

// continues reports whether value j of a block, at keys[i], continues the
// run of value j-1: NULL slots equal each other and nothing else.
func continues[K comparable](keys []K, nulls []bool, j, i, stride int) bool {
	if nulls != nil && (nulls[j] || nulls[j-1]) {
		return nulls[j] == nulls[j-1]
	}
	return keys[i] == keys[i-stride]
}

// encode picks const, RLE or raw for a non-string block of the given run
// count and returns its payload (runLen is set for RLE).
func encode[T any, K comparable](b *block, vals []T, keys []K, s span, runs int) []T {
	switch {
	case runs == 1:
		b.enc = encConst
		return []T{vals[s.first]}
	case runs*3 < b.n:
		b.enc = encRLE
		out := make([]T, 1, runs)
		out[0] = vals[s.first]
		b.runLen = make([]int32, 1, runs)
		b.runLen[0] = 1
		for j, i := 1, s.first+s.stride; j < s.n; j, i = j+1, i+s.stride {
			if continues(keys, b.nulls, j, i, s.stride) {
				b.runLen[len(b.runLen)-1]++
			} else {
				out = append(out, vals[i])
				b.runLen = append(b.runLen, 1)
			}
		}
		return out
	default:
		b.enc = encRaw
		if s.stride == 1 {
			return append([]T(nil), vals[s.first:s.first+s.n]...)
		}
		out := make([]T, s.n)
		for j, i := 0, s.first; j < s.n; j, i = j+1, i+s.stride {
			out[j] = vals[i]
		}
		return out
	}
}

func (b *block) encodeStrings(vals []string, s span) {
	runs := countRuns(vals, b.nulls, s)
	if runs == 1 || runs*2 >= b.n { // const or raw: too many runs for RLE

		b.str = encode(b, vals, vals, s, runs)
		return
	}
	b.enc = encDict
	index := map[string]int32{}
	b.codes = make([]int32, s.n)
	for j, i := 0, s.first; j < s.n; j, i = j+1, i+s.stride {
		code, ok := index[vals[i]]
		if !ok {
			code = int32(len(b.dict))
			index[vals[i]] = code
			b.dict = append(b.dict, vals[i])
		}
		b.codes[j] = code
	}
}

// zoneMap stores scan's [min, max], applying the NULL rules.
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
