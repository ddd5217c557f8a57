package exec

import (
	"encoding/binary"
	"math"
	"math/bits"

	"indbml/internal/engine/expr"
	"indbml/internal/engine/types"
	"indbml/internal/engine/vector"
)

// groupTable maps the key columns of rows to dense group ids 0, 1, 2, … in
// first-seen order. Both aggregates number their groups with it and joins
// their build keys, which probes look up in it or, if dense, in a directIndex.
//
// Fixed-width key columns (integers, floats, booleans) are packed into a few
// 64-bit words per row — 32-bit values two to a word — followed by one word
// of NULL bits, and groups live in an open-addressing table over those
// words. A row that continues the run of groups resolve predicts costs a
// compare of its words; any other costs a hash, a probe and a word compare.
// No row needs a byte buffer or string. A key with a VARCHAR column (or more
// columns than the NULL word has bits) falls back to a byte encoding in a Go
// map.
//
// Key equality is defined once, by the key bits below: two non-NULL values
// are one key when their bits are equal. NULL handling is explicit rather
// than a magic value: a NULL column clears its value bits and sets its bit
// in the NULL word, so GROUP BY collects NULLs into one group; with skipNull
// (join keys) a row with any NULL column belongs to no group, as SQL
// equality demands.
type groupTable struct {
	cols     []keyCol
	words    int // words per packed key including the NULL word; 0 = byte mode
	skipNull bool

	n     int              // groups
	keys  []uint64         // packed mode: the groups' key words, group-major
	slots []int32          // packed mode: open addressing, group id + 1; 0 = free
	byKey map[string]int32 // byte mode
	buf   []byte           // byte mode: encoding scratch

	// One staged batch.
	vecs []*vector.Vector
	rows []uint64 // packed mode: the batch's key words, row-major

	// added lists the staged rows that created a group during the last
	// resolve, in group-id order.
	added []int
}

// keyCol places one fixed-width key column inside the packed key.
type keyCol struct {
	typ   types.T
	word  int
	shift uint
}

const minSlots = 64

func newGroupTable(keyTypes []types.T, skipNull bool) *groupTable {
	t := &groupTable{skipNull: skipNull}
	fixed := len(keyTypes) <= 64
	for _, kt := range keyTypes {
		if kt == types.String {
			fixed = false
		}
	}
	if !fixed {
		t.byKey = make(map[string]int32)
		return t
	}
	// 64-bit columns take a word each; 32-bit ones (and booleans) share.
	half := -1 // word with a free upper half
	for _, kt := range keyTypes {
		switch {
		case kt.Width() == 8:
			t.cols = append(t.cols, keyCol{typ: kt, word: t.words})
			t.words++
		case half >= 0:
			t.cols = append(t.cols, keyCol{typ: kt, word: half, shift: 32})
			half = -1
		default:
			t.cols = append(t.cols, keyCol{typ: kt, word: t.words})
			half = t.words
			t.words++
		}
	}
	t.words++ // the NULL word
	t.slots = make([]int32, minSlots)
	return t
}

func exprTypes(exprs []expr.Expr) []types.T {
	ts := make([]types.T, len(exprs))
	for i, e := range exprs {
		ts[i] = e.Type()
	}
	return ts
}

// evalInto evaluates evs over b into dst, which must have their length.
func evalInto(dst []*vector.Vector, evs []expr.Evaluator, b *vector.Batch) error {
	for i := range evs {
		v, err := evs[i].Eval(b)
		if err != nil {
			return err
		}
		dst[i] = v
	}
	return nil
}

// prober returns a view of t that resolves with insert unset, for probing t
// concurrently with other views once nothing adds to it any more: it reads
// t's groups and stages into scratch of its own.
func (t *groupTable) prober() *groupTable {
	p := *t
	p.vecs, p.rows, p.buf, p.added = nil, nil, nil, nil
	return &p
}

// len returns the number of groups.
func (t *groupTable) len() int { return t.n }

// reset forgets every group, keeping the allocations. The slot array is
// re-sized for the group count just dropped, so a stream of similar segments
// clears a table of the right size and one outsized segment does not tax the
// ones after it.
func (t *groupTable) reset() {
	if t.words == 0 {
		clear(t.byKey)
	} else {
		size := minSlots
		for size < 2*t.n {
			size *= 2
		}
		t.slots = t.slots[:size]
		clear(t.slots)
		t.keys = t.keys[:0]
	}
	t.n = 0
}

// stage packs the key columns of an n-row batch; resolve then works on row
// numbers of that batch. The vectors must stay unchanged until the last
// resolve of the batch.
//
// Each word is written in one pass per column it holds: a word's first
// column stores into it and a 32-bit column in its upper half ORs in, so no
// pass clears the words first; the NULL word is stored as zero. Only a
// column that has NULLs takes a second pass, clearing the value bits of its
// NULL rows and setting their NULL bit.
func (t *groupTable) stage(vecs []*vector.Vector, n int) {
	t.vecs = vecs
	if t.words == 0 {
		return
	}
	w := t.words
	if cap(t.rows) < n*w {
		t.rows = make([]uint64, n*w)
	}
	t.rows = t.rows[:n*w]
	if n == 0 {
		return
	}
	nullWord := t.rows[w-1:]
	for r := 0; r < n; r++ {
		nullWord[r*w] = 0
	}
	for c, kc := range t.cols {
		v, dst := vecs[c], t.rows[kc.word:]
		high := kc.shift != 0
		switch kc.typ {
		case types.Int64:
			for r, x := range v.Int64s() {
				dst[r*w] = uint64(x)
			}
		case types.Float64:
			for r, x := range v.Float64s() {
				dst[r*w] = float64Bits(x)
			}
		case types.Int32:
			xs := v.Int32s()
			if high {
				for r, x := range xs {
					dst[r*w] |= uint64(uint32(x)) << 32
				}
			} else {
				for r, x := range xs {
					dst[r*w] = uint64(uint32(x))
				}
			}
		case types.Float32:
			xs := v.Float32s()
			if high {
				for r, x := range xs {
					dst[r*w] |= uint64(float32Bits(x)) << 32
				}
			} else {
				for r, x := range xs {
					dst[r*w] = uint64(float32Bits(x))
				}
			}
		case types.Bool:
			xs := v.Bools()
			if high {
				for r, x := range xs {
					dst[r*w] |= boolBits(x) << 32
				}
			} else {
				for r, x := range xs {
					dst[r*w] = boolBits(x)
				}
			}
		}
		if nulls := v.Nulls(); nulls != nil {
			valueBits := uint64(math.MaxUint32) << kc.shift
			if kc.typ.Width() == 8 {
				valueBits = math.MaxUint64
			}
			for r, isNull := range nulls {
				if isNull {
					dst[r*w] &^= valueBits
					nullWord[r*w] |= 1 << uint(c)
				}
			}
		}
	}
}

// resolve writes the group id of staged rows [lo, hi) to ids[lo:hi]. With
// insert, unseen keys open new groups (their rows are listed in t.added);
// without, they resolve to -1, as do NULL-keyed rows under skipNull.
func (t *groupTable) resolve(lo, hi int, ids []int32, insert bool) {
	t.added = t.added[:0]
	if t.words == 0 {
		t.resolveBytes(lo, hi, ids, insert)
		return
	}
	w := t.words
	// Grouped streams tend to revisit groups in the order they were first
	// seen — a join fanning every probe row out to the same build rows feeds
	// an aggregate exactly that — so the rows from r on are compared with
	// the groups from next on as one run of words: a hit costs its key's
	// words and no hash. Only the row at the first mismatch is probed. The
	// NULL word is part of the run, so a NULL-keyed group never matches a
	// row whose value bits are zero, and under skipNull (no stored group has
	// a NULL bit) a NULL row always ends a run.
	next := 0
	for r := lo; r < hi; {
		if next >= t.n {
			next = 0
		}
		if t.n > 0 {
			m := min(hi-r, t.n-next)
			hit := matchWords(t.rows[r*w:(r+m)*w], t.keys[next*w:(next+m)*w]) / w
			for i := range hit {
				ids[r+i] = int32(next + i)
			}
			r, next = r+hit, next+hit
			if hit == m {
				continue
			}
		}
		if t.skipNull && t.rows[r*w+w-1] != 0 {
			ids[r] = -1
		} else {
			ids[r] = t.probe(r, insert)
			next = int(ids[r]) + 1
		}
		r++
	}
}

// probe looks staged row r up by hash, opening a group for it if it is
// unseen and insert is set, and returns its group id or -1.
func (t *groupTable) probe(r int, insert bool) int32 {
	w := t.words
	k := t.rows[r*w : r*w+w]
	mask := uint64(len(t.slots) - 1)
	i := hashWords(k) & mask
	for {
		g := t.slots[i]
		if g == 0 {
			break
		}
		if matchWords(k, t.keys[int(g-1)*w:]) == w {
			return g - 1
		}
		i = (i + 1) & mask
	}
	if !insert {
		return -1
	}
	g := int32(t.n)
	t.slots[i] = g + 1
	t.keys = append(t.keys, k...)
	t.n++
	t.added = append(t.added, r)
	if 2*t.n > len(t.slots) {
		t.rehash()
	}
	return g
}

// The key bits of a value. A float keys by its bits after +0, so -0 = +0,
// and every NaN by one canonical NaN's, so NaNs are one key whatever their
// sign or payload (math.NaN() and a computed Inf-Inf differ in both).
const (
	nan64Bits = 0x7FF8000000000001 // math.NaN()
	nan32Bits = 0x7FC00000         // float32(math.NaN())
)

func float64Bits(x float64) uint64 {
	if x != x {
		return nan64Bits
	}
	return math.Float64bits(x + 0)
}

func float32Bits(x float32) uint32 {
	if x != x {
		return nan32Bits
	}
	return math.Float32bits(x + 0)
}

func boolBits(x bool) uint64 {
	if x {
		return 1
	}
	return 0
}

// keyBits returns the key bits of the non-NULL fixed-width value v[r].
func keyBits(v *vector.Vector, r int) uint64 {
	switch v.Type() {
	case types.Bool:
		return boolBits(v.Bools()[r])
	case types.Int32:
		return uint64(uint32(v.Int32s()[r]))
	case types.Int64:
		return uint64(v.Int64s()[r])
	case types.Float32:
		return uint64(float32Bits(v.Float32s()[r]))
	case types.Float64:
		return float64Bits(v.Float64s()[r])
	}
	panic("keyBits: not a fixed-width type")
}

// segKey is one key value under the table's equality, NULL distinct from
// every value. SegmentedAggregate's segment boundary compares its prefix
// column with it: the prefix is not in that aggregate's table key, so the
// two must agree.
type segKey struct {
	bits uint64
	str  string
	null bool
}

func segKeyAt(v *vector.Vector, r int) segKey {
	switch {
	case v.NullAt(r):
		return segKey{null: true}
	case v.Type() == types.String:
		return segKey{str: v.Strings()[r]}
	}
	return segKey{bits: keyBits(v, r)}
}

func (t *groupTable) resolveBytes(lo, hi int, ids []int32, insert bool) {
	for r := lo; r < hi; r++ {
		var null bool
		t.buf, null = encodeKey(t.vecs, r, t.buf[:0])
		if null && t.skipNull {
			ids[r] = -1
			continue
		}
		g, ok := t.byKey[string(t.buf)]
		if !ok {
			g = -1
			if insert {
				g = int32(t.n)
				t.byKey[string(t.buf)] = g
				t.n++
				t.added = append(t.added, r)
			}
		}
		ids[r] = g
	}
}

// rehash doubles the slot array.
func (t *groupTable) rehash() {
	size := 2 * len(t.slots)
	if cap(t.slots) >= size {
		t.slots = t.slots[:size]
		clear(t.slots)
	} else {
		t.slots = make([]int32, size)
	}
	w, mask := t.words, uint64(size-1)
	for g := 0; g < t.n; g++ {
		i := hashWords(t.keys[g*w:g*w+w]) & mask
		for t.slots[i] != 0 {
			i = (i + 1) & mask
		}
		t.slots[i] = int32(g) + 1
	}
}

// hashWords keeps the per-word multiplies off the dependency chain (only the
// rotate and xor are serial) and mixes once at the end.
func hashWords(k []uint64) uint64 {
	var h uint64
	for _, x := range k {
		h = bits.RotateLeft64(h, 25) ^ x*0x9E3779B97F4A7C15
	}
	h ^= h >> 29
	h *= 0xFF51AFD7ED558CCD
	return h ^ h>>32
}

// matchWords returns the length of the common prefix of a and b; b must be
// at least as long as a.
func matchWords(a, b []uint64) int {
	b = b[:len(a)]
	for i, x := range a {
		if x != b[i] {
			return i
		}
	}
	return len(a)
}

// encodeKey appends the byte-mode key of row r to dst: per column a tag byte
// (0 = NULL, 1 = value) and the value. It reports whether any column is NULL.
func encodeKey(vecs []*vector.Vector, r int, dst []byte) ([]byte, bool) {
	null := false
	for _, v := range vecs {
		if v.NullAt(r) {
			dst = append(dst, 0)
			null = true
			continue
		}
		dst = append(dst, 1)
		switch v.Type() {
		case types.Bool:
			dst = append(dst, byte(keyBits(v, r)))
		case types.Int32, types.Float32:
			dst = binary.LittleEndian.AppendUint32(dst, uint32(keyBits(v, r)))
		case types.Int64, types.Float64:
			dst = binary.LittleEndian.AppendUint64(dst, keyBits(v, r))
		case types.String:
			s := v.Strings()[r]
			dst = binary.LittleEndian.AppendUint32(dst, uint32(len(s)))
			dst = append(dst, s...)
		}
	}
	return dst, null
}

// directMaxFill bounds a directIndex to this many slots per distinct key: 4
// slots of 4 bytes cost at most what the hash table holds per key (2 to 4
// slots and the key's words), and a dense key split round-robin over four
// partitions (ML-To-SQL's final id join: 200 of 797 ids) still fits.
const directMaxFill = 4

// directIndex maps dense integer join keys to group ids by position: key
// (v_0, …, v_k) sits at slot Σ (v_c − lo_c)·stride_c of a flat array over
// every key column's [min, max]. Read-only once built, probers share it.
type directIndex struct {
	cols  []directCol
	slots []int32 // group id + 1; 0 = no build key
}

type directCol struct {
	lo     int64
	span   uint64 // max - lo + 1
	stride int32
}

// newDirectIndex indexes t's groups if every key column is INTEGER or BIGINT
// and the product of their spans is at most directMaxFill times the group
// count. Otherwise, and for an empty or key-less build, its slots are nil.
func newDirectIndex(t *groupTable) directIndex {
	if t.n == 0 || t.words == 0 || len(t.cols) == 0 {
		return directIndex{}
	}
	limit := uint64(min(directMaxFill*t.n, math.MaxInt32))
	d, total := directIndex{cols: make([]directCol, len(t.cols))}, uint64(1)
	for c, kc := range t.cols {
		if kc.typ != types.Int32 && kc.typ != types.Int64 {
			return directIndex{}
		}
		lo, hi := t.intKey(0, c), t.intKey(0, c)
		for g := 1; g < t.n; g++ {
			v := t.intKey(g, c)
			lo, hi = min(lo, v), max(hi, v)
		}
		// hi - lo is exact in uint64; it is checked before the +1, which
		// wraps when one build holds both MinInt64 and MaxInt64.
		width := uint64(hi) - uint64(lo)
		if width >= limit || width+1 > limit/total {
			return directIndex{}
		}
		d.cols[c] = directCol{lo: lo, span: width + 1, stride: int32(total)}
		total *= width + 1
	}
	d.slots = make([]int32, total)
	for g := 0; g < t.n; g++ {
		s := int32(0)
		for c, dc := range d.cols {
			s += int32(uint64(t.intKey(g, c))-uint64(dc.lo)) * dc.stride
		}
		d.slots[s] = int32(g) + 1
	}
	return d
}

// intKey returns the value of integer key column c of group g.
func (t *groupTable) intKey(g, c int) int64 {
	kc := t.cols[c]
	x := t.keys[g*t.words+kc.word] >> kc.shift
	if kc.typ == types.Int32 {
		return int64(int32(x))
	}
	return int64(x)
}

// lookup writes the group id of the n probe keys in vecs to ids[:n]: one
// subtract-and-compare pass per key column, then one slot read per row. A key
// outside a column's span, or with a NULL column, resolves to -1.
func (d *directIndex) lookup(vecs []*vector.Vector, n int, ids []int32) {
	ids = ids[:n]
	clear(ids)
	for c, dc := range d.cols {
		if v := vecs[c]; v.Type() == types.Int32 {
			addOffsets(ids, v.Int32s(), dc)
		} else {
			addOffsets(ids, v.Int64s(), dc)
		}
		if nulls := vecs[c].Nulls(); nulls != nil {
			for r, isNull := range nulls {
				if isNull {
					ids[r] = -1
				}
			}
		}
	}
	for r, s := range ids {
		if s >= 0 {
			ids[r] = d.slots[s] - 1
		}
	}
}

// addOffsets adds each row's offset in dc times dc's stride to ids, or sets
// -1 where ids is -1 or the value is outside dc's span. The offset is taken
// in uint64: a value below lo wraps to at least the span (lo + span - 1 ≤
// MaxInt64), so one compare bounds both sides and nothing overflows.
func addOffsets[T int32 | int64](ids []int32, xs []T, dc directCol) {
	ids = ids[:len(xs)]
	for r, x := range xs {
		if off := uint64(int64(x)) - uint64(dc.lo); off < dc.span && ids[r] >= 0 {
			ids[r] += int32(off) * dc.stride
		} else {
			ids[r] = -1
		}
	}
}
