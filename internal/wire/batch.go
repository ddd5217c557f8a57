package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"

	"indbml/internal/engine/types"
	"indbml/internal/engine/vector"
)

var errTruncatedBatch = errors.New("wire: truncated batch frame")

// appendBatch appends the MsgBatch payload of rows [lo, hi) of b to dst
// (package comment: nrows, then per column a NULL flag, bitmap and values).
// hi-lo must not exceed vector.Size. Nothing is allocated when dst has the
// capacity.
func appendBatch(dst []byte, b *vector.Batch, lo, hi int) []byte {
	n := hi - lo
	dst = binary.AppendUvarint(dst, uint64(n))
	for _, v := range b.Vecs {
		nulls := v.Nulls()
		if nulls != nil {
			nulls = nulls[lo:hi]
			if !slices.Contains(nulls, true) {
				nulls = nil
			}
		}
		if nulls == nil {
			dst = append(dst, 0)
		} else {
			var bitmap []byte
			dst = append(dst, 1)
			dst, bitmap = extend(dst, (n+7)/8)
			clear(bitmap)
			for i, null := range nulls {
				if null {
					bitmap[i/8] |= 1 << (i % 8)
				}
			}
		}
		var out []byte
		switch v.Type() {
		case types.Bool:
			dst, out = extend(dst, n)
			for i, x := range v.Bools()[lo:hi] {
				out[i] = 0
				if x {
					out[i] = 1
				}
			}
		case types.Int32:
			dst, out = extend(dst, 4*n)
			for i, x := range v.Int32s()[lo:hi] {
				binary.LittleEndian.PutUint32(out[4*i:], uint32(x))
			}
		case types.Int64:
			dst, out = extend(dst, 8*n)
			for i, x := range v.Int64s()[lo:hi] {
				binary.LittleEndian.PutUint64(out[8*i:], uint64(x))
			}
		case types.Float32:
			dst, out = extend(dst, 4*n)
			for i, x := range v.Float32s()[lo:hi] {
				binary.LittleEndian.PutUint32(out[4*i:], math.Float32bits(x))
			}
		case types.Float64:
			dst, out = extend(dst, 8*n)
			for i, x := range v.Float64s()[lo:hi] {
				binary.LittleEndian.PutUint64(out[8*i:], math.Float64bits(x))
			}
		case types.String:
			for i, s := range v.Strings()[lo:hi] {
				if nulls != nil && nulls[i] {
					s = ""
				}
				dst = binary.AppendUvarint(dst, uint64(len(s)))
				dst = append(dst, s...)
			}
		}
		// A NULL slot's value is whatever the operator left there; the
		// frame carries zeros so equal results encode to equal bytes.
		if nulls != nil && v.Type() != types.String {
			w := v.Type().Width()
			for i, null := range nulls {
				if null {
					clear(out[i*w : (i+1)*w])
				}
			}
		}
	}
	return dst
}

// extend grows dst by k bytes and returns it with the new, uninitialized
// tail.
func extend(dst []byte, k int) ([]byte, []byte) {
	off := len(dst)
	dst = slices.Grow(dst, k)[:off+k]
	return dst, dst[off:]
}

// decodeBatch decodes a MsgBatch payload into dst, replacing its contents;
// dst's vectors give the column types. Every read is bounds-checked against
// the payload: the row count must not exceed vector.Size, NULL flags must be
// 0 or 1, booleans 0 or 1, string lengths must fit in what remains, and the
// payload must end exactly after the last column. The strings of one column
// share one allocation.
func decodeBatch(p []byte, dst *vector.Batch) error {
	rows, k := binary.Uvarint(p)
	if k <= 0 {
		return errTruncatedBatch
	}
	if rows > vector.Size {
		return fmt.Errorf("wire: batch frame of %d rows exceeds %d", rows, vector.Size)
	}
	n := int(rows)
	p = p[k:]
	dst.Reset()
	for c, v := range dst.Vecs {
		if len(p) == 0 {
			return errTruncatedBatch
		}
		flag := p[0]
		p = p[1:]
		var bitmap []byte
		switch flag {
		case 0:
		case 1:
			if len(p) < (n+7)/8 {
				return errTruncatedBatch
			}
			bitmap, p = p[:(n+7)/8], p[(n+7)/8:]
		default:
			return fmt.Errorf("wire: batch column %d has bad NULL flag %d", c, flag)
		}
		var err error
		if p, err = decodeValues(p, v, n); err != nil {
			return fmt.Errorf("wire: batch column %d: %w", c, err)
		}
		if bitmap != nil {
			for i := 0; i < n; i++ {
				if bitmap[i/8]>>(i%8)&1 != 0 {
					v.SetNull(i)
				}
			}
		}
	}
	if len(p) != 0 {
		return fmt.Errorf("wire: %d trailing bytes in batch frame", len(p))
	}
	dst.SetLen(n)
	return nil
}

// decodeValues reads n values of v's type from the front of p into v and
// returns the rest of p.
func decodeValues(p []byte, v *vector.Vector, n int) ([]byte, error) {
	t := v.Type()
	if t == types.String {
		return decodeStrings(p, v, n)
	}
	w := t.Width()
	if len(p) < w*n {
		return nil, io.ErrUnexpectedEOF
	}
	in, rest := p[:w*n], p[w*n:]
	v.Resize(n)
	switch t {
	case types.Bool:
		out := v.Bools()
		for i, x := range in {
			if x > 1 {
				return nil, fmt.Errorf("bad BOOLEAN byte %d", x)
			}
			out[i] = x == 1
		}
	case types.Int32:
		out := v.Int32s()
		for i := range out {
			out[i] = int32(binary.LittleEndian.Uint32(in[4*i:]))
		}
	case types.Int64:
		out := v.Int64s()
		for i := range out {
			out[i] = int64(binary.LittleEndian.Uint64(in[8*i:]))
		}
	case types.Float32:
		out := v.Float32s()
		for i := range out {
			out[i] = math.Float32frombits(binary.LittleEndian.Uint32(in[4*i:]))
		}
	case types.Float64:
		out := v.Float64s()
		for i := range out {
			out[i] = math.Float64frombits(binary.LittleEndian.Uint64(in[8*i:]))
		}
	}
	return rest, nil
}

// decodeStrings validates the column's n len+bytes values, copies the whole
// column into one string and slices the values out of it.
func decodeStrings(p []byte, v *vector.Vector, n int) ([]byte, error) {
	end := 0
	for i := 0; i < n; i++ {
		l, k := binary.Uvarint(p[end:])
		if k <= 0 {
			return nil, io.ErrUnexpectedEOF
		}
		end += k
		if l > uint64(len(p)-end) {
			return nil, fmt.Errorf("string length %d past the frame end", l)
		}
		end += int(l)
	}
	col := string(p[:end])
	v.Resize(n)
	out := v.Strings()
	off := 0
	for i := range out {
		l, k := binary.Uvarint(p[off:])
		off += k
		out[i] = col[off : off+int(l)]
		off += int(l)
	}
	return p[end:], nil
}
