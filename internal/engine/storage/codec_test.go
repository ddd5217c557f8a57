package storage

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"indbml/internal/engine/types"
	"indbml/internal/engine/vector"
)

// genValue draws value i of a column of type typ. shape picks the run
// structure: 0 = one value throughout, 1 = long runs, 2 = noise. Floats
// sometimes draw NaN or a signed zero, which must survive bit for bit.
func genValue(rng *rand.Rand, typ types.T, shape int, prev types.Datum, i int) types.Datum {
	if shape == 0 && i > 0 || shape == 1 && rng.Intn(8) != 0 && i > 0 {
		return prev
	}
	k := rng.Intn(1000) - 500
	switch typ {
	case types.Bool:
		return types.BoolDatum(k%2 == 0)
	case types.Int32:
		return types.Int32Datum(int32(k))
	case types.Int64:
		return types.Int64Datum(int64(k) << 33)
	case types.Float32, types.Float64:
		f := float64(k) / 7
		switch rng.Intn(20) {
		case 0:
			f = math.NaN()
		case 1:
			f = math.Copysign(0, -1)
		}
		if typ == types.Float32 {
			return types.Float32Datum(float32(f))
		}
		return types.Float64Datum(f)
	}
	return types.StringDatum(string(rune('a' + (k+500)%26)))
}

// sameDatum compares two datums bit for bit (NaN equals itself, -0 != +0).
func sameDatum(a, b types.Datum) bool {
	if a.Type != b.Type || a.Null != b.Null {
		return false
	}
	return a.Null || a.B == b.B && a.I64 == b.I64 && a.S == b.S && math.Float64bits(a.F64) == math.Float64bits(b.F64)
}

// TestGeneratedBlockCodec round-trips random vectors through buildBlock and
// decodeInto for every type × run shape × NULL density: decoded values equal
// the input, the encoding is the one the run-count rule picks, and the zone
// map equals the naive Datum-ordered min/max.
func TestGeneratedBlockCodec(t *testing.T) {
	seed := time.Now().UnixNano()
	t.Logf("seed %d", seed)
	rng := rand.New(rand.NewSource(seed))
	typs := []types.T{types.Bool, types.Int32, types.Int64, types.Float32, types.Float64, types.String}
	for _, typ := range typs {
		for shape := 0; shape < 3; shape++ {
			for _, nullP := range []float64{0, 0.05, 0.5, 1} {
				for iter := 0; iter < 4; iter++ {
					checkCodec(t, rng, typ, shape, nullP)
				}
			}
		}
	}
}

func checkCodec(t *testing.T, rng *rand.Rand, typ types.T, shape int, nullP float64) {
	t.Helper()
	total := 1 + rng.Intn(BlockSize+200)
	vec := vector.New(typ, 0)
	var prev types.Datum
	for i := 0; i < total; i++ {
		prev = genValue(rng, typ, shape, prev, i)
		if rng.Float64() < nullP {
			vec.AppendDatum(types.NullDatum(typ))
		} else {
			vec.AppendDatum(prev)
		}
	}
	lo := rng.Intn(total)
	hi := lo + 1 + rng.Intn(min(total-lo, BlockSize))
	b := buildBlock(vec, lo, hi)
	n := hi - lo

	// Decoded == input, read back in random pieces.
	out := vector.New(typ, 0)
	for at := 0; at < n; {
		end := at + 1 + rng.Intn(n-at)
		b.decodeInto(out, at, end)
		at = end
	}
	if out.Len() != n {
		t.Fatalf("%v shape %d nulls %.2f: decoded %d values, want %d", typ, shape, nullP, out.Len(), n)
	}
	for i := 0; i < n; i++ {
		if want, got := vec.Datum(lo+i), out.Datum(i); !sameDatum(got, want) {
			t.Fatalf("%v shape %d nulls %.2f enc %d: value %d = %v, want %v", typ, shape, nullP, b.enc, i, got, want)
		}
	}

	// Encoding == run-count rule.
	runs := 1
	for i := lo + 1; i < hi; i++ {
		if !sameDatum(vec.Datum(i), vec.Datum(i-1)) {
			runs++
		}
	}
	want := encRaw
	switch {
	case runs == 1:
		want = encConst
	case typ == types.String && runs*2 < n:
		want = encDict
	case typ != types.String && runs*3 < n:
		want = encRLE
	}
	if b.enc != want {
		t.Fatalf("%v shape %d nulls %.2f: %d runs over %d values encoded as %d, want %d", typ, shape, nullP, runs, n, b.enc, want)
	}

	// Zone map == naive min/max under Datum ordering (numeric types only).
	if !typ.IsNumeric() {
		if b.min.Type != types.Unknown {
			t.Fatalf("%v block carries a zone map", typ)
		}
		return
	}
	mn, mx := vec.Datum(lo), vec.Datum(lo)
	for i := lo + 1; i < hi; i++ {
		d := vec.Datum(i)
		if d.Compare(mn) < 0 {
			mn = d
		}
		if d.Compare(mx) > 0 {
			mx = d
		}
	}
	if !sameDatum(b.min, mn) || !sameDatum(b.max, mx) {
		t.Fatalf("%v shape %d nulls %.2f: zone map [%v, %v], want [%v, %v]", typ, shape, nullP, b.min, b.max, mn, mx)
	}
}
