package wire

import (
	"encoding/binary"
	"fmt"
	"strconv"

	"indbml/internal/engine/types"
	"indbml/internal/engine/vector"
)

// Value tags of the MsgRows text codec. Non-null values travel as
// length-prefixed text — the representation ODBC drivers commonly use (and
// the reason fetching large numeric results through ODBC costs so much:
// every float is formatted by the server and parsed by the client).
const (
	TagNull = 0
	TagText = 1
)

// EncodeRow pivots one row out of the columnar batch, formatting every
// value as text (the server-side half of the ODBC conversion cost).
func EncodeRow(dst []byte, b *vector.Batch, r int) []byte {
	var scratch [32]byte
	for _, v := range b.Vecs {
		if v.NullAt(r) {
			dst = append(dst, TagNull)
			continue
		}
		dst = append(dst, TagText)
		var text []byte
		switch v.Type() {
		case types.Bool:
			if v.Bools()[r] {
				text = append(scratch[:0], "true"...)
			} else {
				text = append(scratch[:0], "false"...)
			}
		case types.Int32:
			text = strconv.AppendInt(scratch[:0], int64(v.Int32s()[r]), 10)
		case types.Int64:
			text = strconv.AppendInt(scratch[:0], v.Int64s()[r], 10)
		case types.Float32:
			text = strconv.AppendFloat(scratch[:0], float64(v.Float32s()[r]), 'g', -1, 32)
		case types.Float64:
			text = strconv.AppendFloat(scratch[:0], v.Float64s()[r], 'g', -1, 64)
		case types.String:
			text = []byte(v.Strings()[r])
		}
		dst = binary.LittleEndian.AppendUint32(dst, uint32(len(text)))
		dst = append(dst, text...)
	}
	return dst
}

// DecodeRow parses each text value back into a boxed value of the column's
// declared type — the client-side half of the ODBC conversion plus the
// per-object materialization a Python client pays.
func DecodeRow(buf []byte, cols []Column) ([]any, error) {
	row := make([]any, 0, len(cols))
	for len(row) < len(cols) {
		if len(buf) == 0 {
			return nil, fmt.Errorf("wire: truncated row")
		}
		tag := buf[0]
		buf = buf[1:]
		if tag == TagNull {
			row = append(row, nil)
			continue
		}
		if tag != TagText {
			return nil, fmt.Errorf("wire: unknown value tag %d", tag)
		}
		if len(buf) < 4 {
			return nil, fmt.Errorf("wire: truncated value length")
		}
		n := int(binary.LittleEndian.Uint32(buf))
		buf = buf[4:]
		if len(buf) < n {
			return nil, fmt.Errorf("wire: truncated value payload")
		}
		text := string(buf[:n])
		buf = buf[n:]
		v, err := ParseValue(text, cols[len(row)].Type)
		if err != nil {
			return nil, err
		}
		row = append(row, v)
	}
	return row, nil
}

// ParseValue converts one text-encoded value into a boxed value of type t.
func ParseValue(text string, t types.T) (any, error) {
	switch t {
	case types.Bool:
		return text == "true", nil
	case types.Int32:
		v, err := strconv.ParseInt(text, 10, 32)
		if err != nil {
			return nil, fmt.Errorf("wire: parsing %q: %w", text, err)
		}
		return int32(v), nil
	case types.Int64:
		v, err := strconv.ParseInt(text, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("wire: parsing %q: %w", text, err)
		}
		return v, nil
	case types.Float32:
		v, err := strconv.ParseFloat(text, 32)
		if err != nil {
			return nil, fmt.Errorf("wire: parsing %q: %w", text, err)
		}
		return float32(v), nil
	case types.Float64:
		v, err := strconv.ParseFloat(text, 64)
		if err != nil {
			return nil, fmt.Errorf("wire: parsing %q: %w", text, err)
		}
		return v, nil
	default:
		return text, nil
	}
}
