package dist_test

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"time"

	"indbml/internal/engine/db"
	"indbml/internal/engine/types"
	"indbml/internal/engine/vector"
	"indbml/internal/server/client"
)

var allTypes = []types.T{types.Bool, types.Int32, types.Int64, types.Float32, types.Float64, types.String}

// TestGeneratedWireEquality sends random tables over every result path that
// crosses the wire and holds each to the embedded engine's answer, floats
// bit for bit: a server + client read row by row (Next) and batch by batch
// (NextBatch), a 2-shard coordinator queried in process (shard servers →
// RemoteExchange), and that coordinator behind its own server. Schemas mix
// all six types with NULL densities 0, 0.1 and 1, empty and multi-byte
// strings, NaN, ±Inf, −0 and the integer extremes, at row counts around
// the vector size. The seed is logged.
func TestGeneratedWireEquality(t *testing.T) {
	seed := time.Now().UnixNano()
	t.Logf("seed %d", seed)
	rng := rand.New(rand.NewSource(seed))

	opts := db.Options{DefaultPartitions: 2, Parallelism: 2}
	single := db.Open(opts)
	coord, _, shards := newCluster(t, 2, opts)
	singleClient := dialT(t, serveDB(t, single).Addr().String())
	coordClient := dialT(t, serveDB(t, coord).Addr().String())

	table := 0
	for _, nrows := range []int{0, 1, 1023, 1024, 1025, 3*vector.Size + 7} {
		for _, density := range []float64{0, 0.1, 1} {
			table++
			name := fmt.Sprintf("g%d", table)
			schema := randomSchema(rng)
			rows := randomRows(rng, schema, nrows, density)
			ddl := createTable(name, schema)
			if err := single.Exec(ddl); err != nil {
				t.Fatal(err)
			}
			if err := coord.Exec(ddl + " SHARD BY (id)"); err != nil {
				t.Fatal(err)
			}
			load(t, single, name, rows)
			split := rng.Intn(len(rows) + 1)
			load(t, shards[0].db, name, rows[:split])
			load(t, shards[1].db, name, rows[split:])

			q := "SELECT * FROM " + name
			label := fmt.Sprintf("%s (%d rows, NULL density %g, %v)", name, nrows, density, schema)
			want, err := single.Query(q)
			if err != nil {
				t.Fatal(err)
			}
			wantRows := batchRows([]*vector.Batch{want})
			check := func(path string, got [][]any) {
				t.Helper()
				if msg := diffRows(got, wantRows); msg != "" {
					t.Fatalf("seed %d, %s via %s: %s", seed, label, path, msg)
				}
			}
			check("server Next", fetchNext(t, singleClient, q))
			check("server NextBatch", fetchBatches(t, singleClient, q))
			got, err := coord.Query(q)
			if err != nil {
				t.Fatalf("coordinator: %v", err)
			}
			check("coordinator", batchRows([]*vector.Batch{got}))
			check("coordinator server Next", fetchNext(t, coordClient, q))
		}
	}
}

func dialT(t *testing.T, addr string) *client.Client {
	t.Helper()
	c, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// randomSchema is an id column followed by all six types in random order
// and up to two more columns of random types.
func randomSchema(rng *rand.Rand) *types.Schema {
	colTypes := make([]types.T, 0, len(allTypes)+2)
	for _, i := range rng.Perm(len(allTypes)) {
		colTypes = append(colTypes, allTypes[i])
	}
	for n := rng.Intn(3); n > 0; n-- {
		colTypes = append(colTypes, allTypes[rng.Intn(len(allTypes))])
	}
	cols := []types.Column{{Name: "id", Type: types.Int64}}
	for i, ct := range colTypes {
		cols = append(cols, types.Column{Name: fmt.Sprintf("c%d", i), Type: ct})
	}
	return types.NewSchema(cols...)
}

func createTable(name string, schema *types.Schema) string {
	defs := make([]string, schema.Len())
	for i := range defs {
		defs[i] = schema.Col(i).Name + " " + schema.Col(i).Type.String()
	}
	return "CREATE TABLE " + name + " (" + strings.Join(defs, ", ") + ")"
}

var specialStrings = []string{"", "héllo wörld", "日本語テキスト", "🙂 emoji", "nul\x00byte", strings.Repeat("x", 300)}

func randomRows(rng *rand.Rand, schema *types.Schema, n int, density float64) [][]types.Datum {
	rows := make([][]types.Datum, n)
	for r := range rows {
		row := []types.Datum{types.Int64Datum(int64(r))}
		for c := 1; c < schema.Len(); c++ {
			row = append(row, randomDatum(rng, schema.Col(c).Type, density))
		}
		rows[r] = row
	}
	return rows
}

func randomDatum(rng *rand.Rand, t types.T, density float64) types.Datum {
	if rng.Float64() < density {
		return types.NullDatum(t)
	}
	special := rng.Intn(4) == 0
	switch t {
	case types.Bool:
		return types.BoolDatum(rng.Intn(2) == 0)
	case types.Int32:
		if special {
			return types.Int32Datum([]int32{math.MinInt32, math.MaxInt32, 0, -1}[rng.Intn(4)])
		}
		return types.Int32Datum(int32(rng.Uint32()))
	case types.Int64:
		if special {
			return types.Int64Datum([]int64{math.MinInt64, math.MaxInt64, 0, -1}[rng.Intn(4)])
		}
		return types.Int64Datum(int64(rng.Uint64()))
	case types.Float32:
		if special {
			return types.Float32Datum(float32(specialFloat(rng)))
		}
		return types.Float32Datum(float32(rng.NormFloat64() * 1e3))
	case types.Float64:
		if special {
			return types.Float64Datum(specialFloat(rng))
		}
		return types.Float64Datum(rng.NormFloat64() * 1e6)
	default:
		if special {
			return types.StringDatum(specialStrings[rng.Intn(len(specialStrings))])
		}
		b := make([]byte, rng.Intn(12))
		for i := range b {
			b[i] = byte('a' + rng.Intn(26))
		}
		return types.StringDatum(string(b))
	}
}

func specialFloat(rng *rand.Rand) float64 {
	return []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 0,
		math.SmallestNonzeroFloat64, math.MaxFloat64}[rng.Intn(7)]
}

// load appends rows to the already created table name on d.
func load(t *testing.T, d *db.Database, name string, rows [][]types.Datum) {
	t.Helper()
	tbl, err := d.Table(name)
	if err != nil {
		t.Fatal(err)
	}
	b := vector.NewBatch(tbl.Schema, len(rows))
	for _, row := range rows {
		if err := b.AppendRow(row...); err != nil {
			t.Fatal(err)
		}
	}
	if err := tbl.Append(b); err != nil {
		t.Fatal(err)
	}
}

func fetchNext(t *testing.T, c *client.Client, q string) [][]any {
	t.Helper()
	rows, err := c.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	var out [][]any
	for r := rows.Next(); r != nil; r = rows.Next() {
		out = append(out, r)
	}
	if err := rows.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

func fetchBatches(t *testing.T, c *client.Client, q string) [][]any {
	t.Helper()
	rows, err := c.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	var batches []*vector.Batch
	for {
		b, err := rows.NextBatch()
		if err != nil {
			t.Fatal(err)
		}
		if b == nil {
			break
		}
		if b.Len() > vector.Size {
			t.Fatalf("NextBatch returned %d rows, more than a frame holds", b.Len())
		}
		batches = append(batches, b)
	}
	return batchRows(batches)
}

// batchRows boxes batches the way Rows.Next does: nil for NULL, otherwise
// the column type's Go value.
func batchRows(batches []*vector.Batch) [][]any {
	var out [][]any
	for _, b := range batches {
		for r := 0; r < b.Len(); r++ {
			row := make([]any, len(b.Vecs))
			for c, v := range b.Vecs {
				if v.NullAt(r) {
					continue
				}
				switch v.Type() {
				case types.Bool:
					row[c] = v.Bools()[r]
				case types.Int32:
					row[c] = v.Int32s()[r]
				case types.Int64:
					row[c] = v.Int64s()[r]
				case types.Float32:
					row[c] = v.Float32s()[r]
				case types.Float64:
					row[c] = v.Float64s()[r]
				case types.String:
					row[c] = v.Strings()[r]
				}
			}
			out = append(out, row)
		}
	}
	return out
}

// diffRows compares two row sets keyed by their leading id, floats by bit
// pattern, and describes the first difference ("" when equal).
func diffRows(got, want [][]any) string {
	byID := func(rows [][]any) {
		sort.Slice(rows, func(i, j int) bool { return rows[i][0].(int64) < rows[j][0].(int64) })
	}
	byID(got)
	byID(want)
	if len(got) != len(want) {
		return fmt.Sprintf("%d rows, want %d", len(got), len(want))
	}
	for r := range want {
		if len(got[r]) != len(want[r]) {
			return fmt.Sprintf("row %d has %d values, want %d", r, len(got[r]), len(want[r]))
		}
		for c := range want[r] {
			if !sameValue(got[r][c], want[r][c]) {
				return fmt.Sprintf("row %d column %d = %#v, want %#v", r, c, got[r][c], want[r][c])
			}
		}
	}
	return ""
}

func sameValue(a, b any) bool {
	switch x := a.(type) {
	case float32:
		y, ok := b.(float32)
		return ok && math.Float32bits(x) == math.Float32bits(y)
	case float64:
		y, ok := b.(float64)
		return ok && math.Float64bits(x) == math.Float64bits(y)
	}
	return a == b
}
