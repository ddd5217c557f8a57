package dist_test

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"indbml/internal/core/relmodel"
	"indbml/internal/dist"
	"indbml/internal/engine/db"
	"indbml/internal/nn"
)

// TestScatterInsertBindErrorWritesNothing: the coordinator binds a sharded
// INSERT before anything ships, so a value that cannot be cast fails the
// whole statement — naming its row in the statement — and no shard keeps
// any of it.
func TestScatterInsertBindErrorWritesNothing(t *testing.T) {
	coord, _, shards := newCluster(t, 2, db.Options{DefaultPartitions: 2})
	if err := coord.Exec("CREATE TABLE ev (id INTEGER, f DOUBLE) SHARD BY (id)"); err != nil {
		t.Fatal(err)
	}
	err := coord.Exec("INSERT INTO ev VALUES (1, 1.0), (2, 'abc'), (3, 2.0), (4, 'x'), (5, 1.0), (6, 2.0)")
	if err == nil || !strings.Contains(err.Error(), "row 1:") {
		t.Fatalf("INSERT with an uncastable value in row 1: got %v, want an error naming row 1", err)
	}
	for i, sh := range shards {
		if n := countRows(t, sh.db, "ev"); n != 0 {
			t.Errorf("shard %d kept %d rows of a statement that failed", i, n)
		}
	}
}

// TestScatterInsertQuotedNames sends quoted, keyword-named and mixed-case
// table and column names through scatter INSERTs — with and without a
// column list, the list reordered and partial — and holds the coordinator's
// answer to a single node's.
func TestScatterInsertQuotedNames(t *testing.T) {
	opts := db.Options{DefaultPartitions: 2}
	single := db.Open(opts)
	coord, _, _ := newCluster(t, 2, opts)
	const ddl = `CREATE TABLE "Order Items" ("select" INTEGER, "CamelCase" VARCHAR, plain DOUBLE)`
	if err := single.Exec(ddl); err != nil {
		t.Fatal(err)
	}
	if err := coord.Exec(ddl + ` SHARD BY ("select")`); err != nil {
		t.Fatal(err)
	}
	for _, q := range []string{
		`INSERT INTO "Order Items" ("select", "CamelCase", plain) VALUES (1, 'a', -2.5), (2, 'b''c', NULL), (3, 'd', 4)`,
		`INSERT INTO "Order Items" VALUES (4, 'e', 1.5), (5, NULL, 0)`,
		`INSERT INTO "Order Items" ("CamelCase", "select") VALUES ('f', 6), ('g', 7)`,
	} {
		for _, d := range []*db.Database{single, coord} {
			if err := d.Exec(q); err != nil {
				t.Fatalf("%s: %v", q, err)
			}
		}
	}
	const sel = `SELECT "select", "CamelCase", plain FROM "Order Items" ORDER BY "select"`
	got, want := rowsOf(t, coord, sel), rowsOf(t, single, sel)
	if len(want) != 7 || !slices.Equal(got, want) {
		t.Fatalf("coordinator:\n%s\nsingle node:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}

// TestGeneratedShardPlacement inserts random INTEGER, BIGINT and VARCHAR
// shard keys — duplicates included, integers spelled both 7 and 7.0 —
// over several multi-row statements, then reads every shard directly:
// each key lives on exactly one shard, the one its bound value hashes to
// (without allocating), and the shards together hold what a single node
// holds. A NULL key fails its statement, naming the row, with nothing
// applied. The seed is logged.
func TestGeneratedShardPlacement(t *testing.T) {
	seed := time.Now().UnixNano()
	t.Logf("seed %d", seed)
	rng := rand.New(rand.NewSource(seed))
	opts := db.Options{DefaultPartitions: 2}
	for _, keyType := range []string{"INTEGER", "BIGINT", "VARCHAR"} {
		nshards := 2 + rng.Intn(2)
		single := db.Open(opts)
		coord, _, shards := newCluster(t, nshards, opts)
		ddl := "CREATE TABLE p (k " + keyType + ", v INTEGER)"
		if err := single.Exec(ddl); err != nil {
			t.Fatal(err)
		}
		if err := coord.Exec(ddl + " SHARD BY (k)"); err != nil {
			t.Fatal(err)
		}
		keys := make([]string, 20+rng.Intn(30))
		for i := range keys {
			keys[i] = randomKey(rng, keyType)
		}
		v := 0
		for stmts := 2 + rng.Intn(4); stmts > 0; stmts-- {
			vals := make([]string, 1+rng.Intn(60))
			for i := range vals {
				vals[i] = fmt.Sprintf("(%s, %d)", keys[rng.Intn(len(keys))], v)
				v++
			}
			q := "INSERT INTO p VALUES " + strings.Join(vals, ", ")
			for _, d := range []*db.Database{single, coord} {
				if err := d.Exec(q); err != nil {
					t.Fatalf("seed %d: %s: %v", seed, q, err)
				}
			}
		}

		var union []string
		home := map[string]int{} // key -> the shard holding it
		for i, sh := range shards {
			b, err := sh.db.Query("SELECT k FROM p")
			if err != nil {
				t.Fatal(err)
			}
			key := b.Vecs[0]
			for r := range b.Len() {
				k := fmt.Sprintf("%#v", key.Datum(r))
				if at, ok := home[k]; ok && at != i {
					t.Fatalf("seed %d, %s: key %s on shards %d and %d", seed, keyType, k, at, i)
				}
				home[k] = i
				if got := dist.ShardOf(key, r, nshards); got != i {
					t.Fatalf("seed %d, %s: key %s is on shard %d, its value hashes to %d", seed, keyType, k, i, got)
				}
			}
			if allocs := testing.AllocsPerRun(5, func() {
				for r := range b.Len() {
					dist.ShardOf(key, r, nshards)
				}
			}); allocs != 0 {
				t.Errorf("%s: placing %d rows allocates %.0f times", keyType, b.Len(), allocs)
			}
			union = append(union, rowsOf(t, sh.db, "SELECT k, v FROM p")...)
		}
		want := rowsOf(t, single, "SELECT k, v FROM p")
		slices.Sort(union)
		slices.Sort(want)
		if !slices.Equal(union, want) {
			t.Fatalf("seed %d, %s: the shards hold %d rows, a single node %d, or different ones", seed, keyType, len(union), len(want))
		}

		versions := make([]uint64, len(shards))
		for i, sh := range shards {
			versions[i] = tableVersion(t, sh.db, "p")
		}
		vals := make([]string, 2+rng.Intn(10))
		nullRow := rng.Intn(len(vals))
		for i := range vals {
			k := keys[rng.Intn(len(keys))]
			if i == nullRow {
				k = "NULL"
			}
			vals[i] = fmt.Sprintf("(%s, %d)", k, i)
		}
		err := coord.Exec("INSERT INTO p VALUES " + strings.Join(vals, ", "))
		if want := fmt.Sprintf("row %d:", nullRow); err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("seed %d, %s: INSERT with a NULL key in row %d: got %v", seed, keyType, nullRow, err)
		}
		for i, sh := range shards {
			if got := tableVersion(t, sh.db, "p"); got != versions[i] {
				t.Errorf("seed %d, %s: shard %d changed (version %d -> %d) under a failed INSERT", seed, keyType, i, versions[i], got)
			}
		}
	}
}

// randomKey renders a random shard-key literal of the given type. Integers
// near the type's extremes and around zero are both likely; one spelled
// with a fraction (7.0) must bind, and so place, like its plain spelling.
func randomKey(rng *rand.Rand, keyType string) string {
	switch keyType {
	case "VARCHAR":
		s := []string{"", "a", "A", "x y", "it's", "日本", "7", "7.0", "NULL"}[rng.Intn(9)]
		return "'" + strings.ReplaceAll(s+strconv.Itoa(rng.Intn(5)), "'", "''") + "'"
	case "INTEGER":
		return intLiteral(rng, []int64{math.MinInt32, math.MaxInt32}[rng.Intn(2)], rng.Int63n(1<<31)-1<<30)
	default:
		// -9223372036854775808 has no literal: its digits overflow BIGINT
		// before the minus applies.
		return intLiteral(rng, []int64{math.MinInt64 + 1, math.MaxInt64}[rng.Intn(2)], rng.Int63n(1<<40)-1<<39)
	}
}

func intLiteral(rng *rand.Rand, extreme, mid int64) string {
	var k int64
	switch rng.Intn(3) {
	case 0:
		k = extreme
	case 1:
		k = int64(rng.Intn(21) - 10)
	default:
		k = mid
	}
	if k > -1<<53 && k < 1<<53 && rng.Intn(2) == 0 {
		return strconv.FormatInt(k, 10) + ".0"
	}
	return strconv.FormatInt(k, 10)
}

// TestReplicateModelPastOneStream replicates a model table too large for
// one replication stream: every shard must receive all of it, one version
// bump per stream.
func TestReplicateModelPastOneStream(t *testing.T) {
	coord, co, shards := newCluster(t, 2, db.Options{DefaultPartitions: 2})
	if _, err := coord.RegisterModel(nn.NewDenseModel("wide", 4, 512, 2, 1, 3), relmodel.ExportOptions{Partitions: 2}); err != nil {
		t.Fatal(err)
	}
	if n := countRows(t, coord, "wide"); n <= dist.ReplicateRows {
		t.Fatalf("model table has %d rows, want more than one stream's %d", n, dist.ReplicateRows)
	}
	if err := co.ReplicateModel(context.Background(), "wide"); err != nil {
		t.Fatal(err)
	}
	const q = "SELECT COUNT(*) AS n, SUM(layer_in) AS li, SUM(node_in) AS ni, SUM(node) AS nd, MIN(w_i) AS lo, MAX(w_i) AS hi FROM wide"
	want := rowsOf(t, coord, q)
	for i, sh := range shards {
		if got := rowsOf(t, sh.db, q); !slices.Equal(got, want) {
			t.Errorf("shard %d holds %v, the coordinator %v", i, got, want)
		}
		if v := tableVersion(t, sh.db, "wide"); v != 2 {
			t.Errorf("shard %d: model table at version %d, want 2 (two streams)", i, v)
		}
	}
}

func countRows(t *testing.T, d *db.Database, table string) int64 {
	t.Helper()
	b, err := d.Query("SELECT COUNT(*) AS n FROM " + table)
	if err != nil {
		t.Fatal(err)
	}
	return b.Vecs[0].AsInt64(0)
}

func tableVersion(t *testing.T, d *db.Database, table string) uint64 {
	t.Helper()
	tbl, err := d.Table(table)
	if err != nil {
		t.Fatal(err)
	}
	return tbl.Version()
}

// BenchmarkScatterInsert is the coordinator side of dist_rows' set-up: one
// 500-row (INTEGER, 4×DOUBLE) INSERT per op through a coordinator over two
// in-process shard servers — the coordinator's parse and bind, the split by
// shard key and each shard's append of its share.
func BenchmarkScatterInsert(b *testing.B) {
	coord, _, _ := newCluster(b, 2, db.Options{DefaultPartitions: 4})
	if err := coord.Exec("CREATE TABLE ev (id INTEGER, f1 DOUBLE, f2 DOUBLE, f3 DOUBLE, f4 DOUBLE) SHARD BY (id)"); err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	var sb strings.Builder
	sb.WriteString("INSERT INTO ev VALUES ")
	for i := 0; i < 500; i++ {
		if i > 0 {
			sb.WriteString(", ")
		}
		fmt.Fprintf(&sb, "(%d", i)
		for f := 0; f < 4; f++ {
			sb.WriteString(", " + strconv.FormatFloat(rng.Float64(), 'g', -1, 64))
		}
		sb.WriteByte(')')
	}
	stmt := sb.String()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := coord.Exec(stmt); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Microseconds())/1e3/float64(b.N), "ms/op")
}
