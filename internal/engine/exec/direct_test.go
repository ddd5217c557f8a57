package exec

import (
	"fmt"
	"math"
	"testing"

	"indbml/internal/engine/expr"
	"indbml/internal/engine/types"
	"indbml/internal/engine/vector"
)

// intKeyRows builds rows of integer key columns of type typ from values,
// nil standing for NULL, with a row number after the keys.
func intKeyRows(typ types.T, keys ...[]any) [][]types.Datum {
	rows := make([][]types.Datum, len(keys))
	for r, k := range keys {
		row := make([]types.Datum, len(k)+1)
		for c, v := range k {
			switch {
			case v == nil:
				row[c] = types.NullDatum(typ)
			case typ == types.Int32:
				row[c] = types.Int32Datum(int32(v.(int)))
			default:
				row[c] = types.Int64Datum(int64(v.(int)))
			}
		}
		row[len(k)] = types.Int64Datum(int64(r))
		rows[r] = row
	}
	return rows
}

// TestDirectIndexEdges runs a HashJoin over integer keys at the edges of the
// direct index: the build must take the index exactly when its keys are dense
// (and keep the hash table otherwise), every probe key must resolve to the
// id the hash table gives it, and the join must match a nested loop that
// compares the keys as integers.
func TestDirectIndexEdges(t *testing.T) {
	const minI, maxI = math.MinInt64, math.MaxInt64
	cases := []struct {
		name         string
		typ          types.T
		build, probe [][]any
		direct       bool
	}{
		{"negative keys", types.Int64,
			[][]any{{-5}, {-3}, {-4}, {-1}, {-3}},
			[][]any{{-6}, {-5}, {-4}, {-3}, {-2}, {-1}, {0}, {5}}, true},
		{"negative INTEGER keys", types.Int32,
			[][]any{{-2}, {-1}, {0}, {1}},
			[][]any{{math.MinInt32}, {-2}, {1}, {2}, {math.MaxInt32}}, true},
		{"MinInt64 and MaxInt64 in one build", types.Int64,
			[][]any{{minI}, {maxI}, {0}},
			[][]any{{minI}, {maxI}, {0}, {1}, {-1}, {minI + 1}, {maxI - 1}}, false},
		{"probes far below a span at the top", types.Int64,
			[][]any{{maxI - 3}, {maxI - 2}, {maxI - 1}, {maxI}},
			[][]any{{minI}, {minI + 1}, {minI + 3}, {-1}, {0}, {maxI - 4}, {maxI - 3}, {maxI}}, true},
		{"probes far above a span at the bottom", types.Int64,
			[][]any{{minI}, {minI + 1}, {minI + 2}},
			[][]any{{maxI}, {maxI - 1}, {maxI - 2}, {0}, {minI + 3}, {minI}, {minI + 2}}, true},
		{"INTEGER probes far outside", types.Int32,
			[][]any{{math.MaxInt32 - 1}, {math.MaxInt32}},
			[][]any{{math.MinInt32}, {math.MinInt32 + 1}, {math.MaxInt32}, {0}}, true},
		{"NULL keys on both sides", types.Int64,
			[][]any{{1}, {nil}, {2}, {nil}, {3}},
			[][]any{{nil}, {1}, {2}, {nil}, {0}, {3}}, true},
		{"composite key with NULLs", types.Int32,
			[][]any{{0, 0}, {1, nil}, {nil, 1}, {1, 1}, {0, 1}},
			[][]any{{0, 0}, {1, nil}, {nil, 1}, {nil, nil}, {1, 1}, {0, 1}, {1, 0}, {2, 1}}, true},
		{"composite key with one constant column", types.Int64,
			[][]any{{0, 7}, {1, 7}, {2, 7}, {3, 7}, {2, 7}},
			[][]any{{0, 7}, {3, 7}, {4, 7}, {0, 6}, {0, 8}, {-1, 7}, {2, 7}}, true},
		{"composite key too sparse", types.Int64,
			[][]any{{0, 0}, {1, 1}, {2, 2}, {3, 3}, {4, 4}},
			[][]any{{0, 0}, {1, 1}, {4, 4}, {0, 1}}, false},
		{"span of exactly four per key", types.Int64,
			[][]any{{0}, {3}, {11}},
			[][]any{{0}, {1}, {3}, {11}, {12}, {-1}}, true},
		{"span of just over four per key", types.Int64,
			[][]any{{0}, {3}, {12}},
			[][]any{{0}, {3}, {12}, {13}}, false},
		{"empty build", types.Int64,
			nil,
			[][]any{{0}, {nil}, {1}}, false},
	}
	for _, tc := range cases {
		build, probe := intKeyRows(tc.typ, tc.build...), intKeyRows(tc.typ, tc.probe...)
		nkeys := 1
		if len(tc.probe) > 0 {
			nkeys = len(tc.probe[0])
		}
		var cols []types.Column
		var keys []expr.Expr
		for c := 0; c < nkeys; c++ {
			name := fmt.Sprintf("k%d", c)
			cols = append(cols, types.Column{Name: name, Type: tc.typ})
			keys = append(keys, expr.NewColRef(c, name, tc.typ))
		}
		schema := types.NewSchema(append(cols, types.Column{Name: "row", Type: types.Int64})...)
		mk := func(rows [][]types.Datum) *vector.Batch {
			b := vector.NewBatch(schema, len(rows))
			for _, r := range rows {
				if err := b.AppendRow(r...); err != nil {
					t.Fatal(err)
				}
			}
			return b
		}

		var want []string
		for _, p := range probe {
			for _, b := range build {
				if intKeysEqual(p, b, nkeys) {
					want = append(want, rowString(append(append([]types.Datum(nil), p...), b...)))
				}
			}
		}
		bs := NewBuild(NewValues(schema, mk(build)))
		j, err := NewHashJoin(NewValues(schema, mk(probe)), bs, keys, keys, true, nil)
		if err != nil {
			t.Fatal(err)
		}
		out, err := Collect(j)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		compareRows(t, tc.name, rowsOf(out), want)
		if got := bs.direct.slots != nil; got != tc.direct {
			t.Fatalf("%s: direct index %v, want %v", tc.name, got, tc.direct)
		}
		if bs.direct.slots == nil {
			continue
		}

		// The index resolves every probe key to the hash table's id.
		pb := mk(probe)
		vecs := pb.Vecs[:nkeys]
		got, ref := make([]int32, pb.Len()), make([]int32, pb.Len())
		bs.direct.lookup(vecs, pb.Len(), got)
		table := bs.table.prober()
		table.stage(vecs, pb.Len())
		table.resolve(0, pb.Len(), ref, false)
		for r := range got {
			if got[r] != ref[r] {
				t.Fatalf("%s: probe row %d resolves to %d, the hash table to %d", tc.name, r, got[r], ref[r])
			}
		}
	}
}

// intKeysEqual is SQL equality of the first n integer columns of l and r,
// compared as integers: float64 cannot tell MaxInt64 from MaxInt64-1.
func intKeysEqual(l, r []types.Datum, n int) bool {
	for c := 0; c < n; c++ {
		if l[c].Null || r[c].Null || l[c].Int() != r[c].Int() {
			return false
		}
	}
	return true
}
