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
// first-seen order. It is the engine's one key structure: both aggregates
// number their groups with it and HashJoin builds it over the build side and
// probes it.
//
// Fixed-width key columns (integers, floats, booleans) are packed column at
// a time into a few 64-bit words per row — 32-bit values two to a word —
// followed by one word of NULL bits, and groups live in an open-addressing
// table over those words: a row costs a hash, a probe and a word compare,
// with no per-row byte buffer or string. A key with a VARCHAR column (or
// more columns than the NULL word has bits) falls back to a byte encoding in
// a Go map.
//
// NULL handling is explicit rather than a magic value: a NULL column clears
// its value bits and sets its bit in the NULL word, so GROUP BY collects
// NULLs into one group; with skipNull (join keys) a row with any NULL column
// belongs to no group, as SQL equality demands.
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
	clear(t.rows)
	for c, kc := range t.cols {
		v := vecs[c]
		dst, i := t.rows[kc.word:], 0
		switch kc.typ {
		case types.Bool:
			for _, x := range v.Bools() {
				if x {
					dst[i] |= 1 << kc.shift
				}
				i += w
			}
		case types.Int32:
			for _, x := range v.Int32s() {
				dst[i] |= uint64(uint32(x)) << kc.shift
				i += w
			}
		case types.Int64:
			for _, x := range v.Int64s() {
				dst[i] = uint64(x)
				i += w
			}
		case types.Float32:
			for _, x := range v.Float32s() {
				dst[i] |= uint64(math.Float32bits(x+0)) << kc.shift // x+0: -0 keys as +0
				i += w
			}
		case types.Float64:
			for _, x := range v.Float64s() {
				dst[i] = math.Float64bits(x + 0)
				i += w
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
					t.rows[r*w+w-1] |= 1 << uint(c)
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
	slots, mask := t.slots, uint64(len(t.slots)-1)
	// Grouped streams tend to revisit groups in the order they were first
	// seen — a join fanning every probe row out to the same build rows feeds
	// an aggregate exactly that — so the group after the previous row's is
	// tried first: a hit costs one key compare and no hash.
	next := 0
	for r := lo; r < hi; r++ {
		k := t.rows[r*w : r*w+w]
		if t.skipNull && k[w-1] != 0 {
			ids[r] = -1
			continue
		}
		if next >= t.n {
			next = 0
		}
		if next < t.n && equalWords(t.keys[next*w:next*w+w], k) {
			ids[r] = int32(next)
			next++
			continue
		}
		i := hashWords(k) & mask
		for {
			g := slots[i]
			if g == 0 {
				break
			}
			if equalWords(t.keys[int(g-1)*w:int(g-1)*w+w], k) {
				break
			}
			i = (i + 1) & mask
		}
		ids[r] = slots[i] - 1
		next = int(slots[i])
		if slots[i] == 0 && insert {
			ids[r] = int32(t.n)
			slots[i] = int32(t.n) + 1
			t.keys = append(t.keys, k...)
			t.n++
			t.added = append(t.added, r)
			if 2*t.n > len(slots) {
				t.rehash()
				slots, mask = t.slots, uint64(len(t.slots)-1)
			}
		}
	}
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

func equalWords(a, b []uint64) bool {
	for i, x := range a {
		if x != b[i] {
			return false
		}
	}
	return true
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
			if v.Bools()[r] {
				dst = append(dst, 1)
			} else {
				dst = append(dst, 0)
			}
		case types.Int32:
			dst = binary.LittleEndian.AppendUint32(dst, uint32(v.Int32s()[r]))
		case types.Int64:
			dst = binary.LittleEndian.AppendUint64(dst, uint64(v.Int64s()[r]))
		case types.Float32:
			dst = binary.LittleEndian.AppendUint32(dst, math.Float32bits(v.Float32s()[r]+0))
		case types.Float64:
			dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(v.Float64s()[r]+0))
		case types.String:
			s := v.Strings()[r]
			dst = binary.LittleEndian.AppendUint32(dst, uint32(len(s)))
			dst = append(dst, s...)
		}
	}
	return dst, null
}
