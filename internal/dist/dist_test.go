package dist_test

import (
	"context"
	"fmt"
	"math/rand"
	"net"
	"sort"
	"strings"
	"testing"
	"time"

	"indbml/internal/core/relmodel"
	"indbml/internal/dist"
	"indbml/internal/engine/db"
	"indbml/internal/engine/types"
	"indbml/internal/nn"
	"indbml/internal/server"
	"indbml/internal/server/client"
	"indbml/internal/workload"
)

// shardProc is one in-process shard daemon: its engine plus its wire
// listener address.
type shardProc struct {
	db   *db.Database
	srv  *server.Server
	addr string
}

func startShard(t testing.TB, opts db.Options) *shardProc {
	t.Helper()
	d := db.Open(opts)
	s := serveDB(t, d)
	return &shardProc{db: d, srv: s, addr: s.Addr().String()}
}

// serveDB serves d on a loopback port for the rest of the test.
func serveDB(t testing.TB, d *db.Database) *server.Server {
	t.Helper()
	s := server.New(d, server.Config{QuerySlots: 4, QueueDepth: 32, IdleTimeout: time.Minute})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go s.Serve(ln)
	t.Cleanup(func() { s.Close() })
	for i := 0; s.Addr() == nil && i < 100; i++ {
		time.Sleep(time.Millisecond)
	}
	return s
}

// newCluster boots n shard daemons plus a coordinator engine routed over
// them.
func newCluster(t testing.TB, n int, opts db.Options) (*db.Database, *dist.Coordinator, []*shardProc) {
	t.Helper()
	shards := make([]*shardProc, n)
	addrs := make([]string, n)
	for i := range shards {
		shards[i] = startShard(t, opts)
		addrs[i] = shards[i].addr
	}
	coord := db.Open(opts)
	co := dist.New(coord, addrs)
	t.Cleanup(co.Close)
	return coord, co, shards
}

// rowsOf runs a query and renders every row as one canonical string.
func rowsOf(t *testing.T, d *db.Database, q string) []string {
	t.Helper()
	b, err := d.Query(q)
	if err != nil {
		t.Fatalf("query %q: %v", q, err)
	}
	out := make([]string, 0, b.Len())
	for r := 0; r < b.Len(); r++ {
		var sb strings.Builder
		for c := range b.Vecs {
			if c > 0 {
				sb.WriteString(" | ")
			}
			d := b.Vecs[c].Datum(r)
			switch {
			case d.Null:
				sb.WriteString("NULL")
			case d.Type == types.Float32 || d.Type == types.Float64:
				// Distributed SUM/AVG accumulate in shard order; compare
				// floats at 9 significant digits, not bit-exactly.
				fmt.Fprintf(&sb, "%.9g", d.F64)
			default:
				fmt.Fprintf(&sb, "%#v", d)
			}
		}
		out = append(out, sb.String())
	}
	return out
}

func colNamesOf(t *testing.T, d *db.Database, q string) string {
	t.Helper()
	op, err := d.QueryOp(q)
	if err != nil {
		t.Fatalf("query %q: %v", q, err)
	}
	defer op.Close()
	names := make([]string, 0, op.Schema().Len())
	for i := 0; i < op.Schema().Len(); i++ {
		names = append(names, op.Schema().Col(i).Name)
	}
	return strings.Join(names, ",")
}

func registerTestModel(t *testing.T, d *db.Database) {
	t.Helper()
	model := &nn.Model{Name: "dist_model", Layers: []nn.Layer{
		nn.NewDense(4, 8, nn.Tanh),
		nn.NewDense(8, 2, nn.Sigmoid),
	}}
	workload.SeedDense(model, 7)
	if _, err := d.RegisterModel(model, relmodel.ExportOptions{Partitions: 2}); err != nil {
		t.Fatal(err)
	}
}

// seedEvents creates the events table on both engines — sharded on the
// cluster, plain on the reference — and inserts identical rows through the
// SQL front door (the coordinator scatters them by hash of id).
func seedEvents(t *testing.T, single, coord *db.Database, nRows int) {
	t.Helper()
	ddl := "CREATE TABLE events (id INTEGER, grp VARCHAR, v DOUBLE, f1 DOUBLE, f2 DOUBLE, f3 DOUBLE, f4 DOUBLE)"
	if err := single.Exec(ddl); err != nil {
		t.Fatal(err)
	}
	if err := coord.Exec(ddl + " SHARD BY (id)"); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(11))
	const batch = 128
	for lo := 0; lo < nRows; lo += batch {
		var sb strings.Builder
		sb.WriteString("INSERT INTO events VALUES ")
		for i := lo; i < lo+batch && i < nRows; i++ {
			if i > lo {
				sb.WriteString(", ")
			}
			fmt.Fprintf(&sb, "(%d, 'g%d', %g, %g, %g, %g, %g)",
				i, i%5, float64(i)*0.37+0.11,
				rng.Float64(), rng.Float64(), rng.Float64(), rng.Float64())
		}
		stmt := sb.String()
		if err := single.Exec(stmt); err != nil {
			t.Fatal(err)
		}
		if err := coord.Exec(stmt); err != nil {
			t.Fatal(err)
		}
	}
}

// TestDistributedDifferential is the correctness core of the scale-out
// layer: the same statements run against a 3-shard cluster and a
// single-node reference, and every query — projections, filters, ORDER
// BY/LIMIT, DISTINCT, all five aggregates with and without GROUP
// BY/HAVING, and MODEL JOIN inference — must return identical rows and
// identical column names.
func TestDistributedDifferential(t *testing.T) {
	opts := db.Options{DefaultPartitions: 2, Parallelism: 2}
	single := db.Open(opts)
	coord, co, _ := newCluster(t, 3, opts)

	seedEvents(t, single, coord, 1000)

	registerTestModel(t, single)
	registerTestModel(t, coord)
	if err := co.ReplicateModel(context.Background(), "dist_model"); err != nil {
		t.Fatalf("replicating model: %v", err)
	}

	cases := []struct {
		q       string
		ordered bool
	}{
		{"SELECT * FROM events", false},
		{"SELECT id, v FROM events WHERE id % 3 = 0 AND v > 50", false},
		{"SELECT id, v FROM events ORDER BY v DESC LIMIT 10", true},
		{"SELECT * FROM events ORDER BY id LIMIT 7", true},
		{"SELECT DISTINCT grp FROM events", false},
		{"SELECT COUNT(*) AS n FROM events", true},
		{"SELECT COUNT(*) AS n, SUM(v) AS s, MIN(v) AS lo, MAX(v) AS hi, AVG(v) AS mean FROM events", true},
		{"SELECT grp, COUNT(*) AS n, AVG(v) AS mean FROM events GROUP BY grp ORDER BY grp", true},
		{"SELECT grp, SUM(v) AS s FROM events WHERE id < 500 GROUP BY grp HAVING COUNT(*) > 50 ORDER BY s DESC", true},
		{"SELECT grp, MAX(v) - MIN(v) AS spread FROM events GROUP BY grp ORDER BY grp", true},
		{"SELECT AVG(v) AS mean FROM events WHERE id > 100000", true}, // empty input
		{"SELECT id, prediction_0, prediction_1 FROM events MODEL JOIN dist_model PREDICT (f1, f2, f3, f4) WHERE id < 200", false},
		{"SELECT COUNT(*) AS n, AVG(prediction_0) AS p FROM events MODEL JOIN dist_model PREDICT (f1, f2, f3, f4)", true},
	}
	for _, tc := range cases {
		want := rowsOf(t, single, tc.q)
		got := rowsOf(t, coord, tc.q)
		if !tc.ordered {
			sort.Strings(want)
			sort.Strings(got)
		}
		if len(got) != len(want) {
			t.Errorf("%s:\n got %d rows, want %d", tc.q, len(got), len(want))
			continue
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%s:\n row %d:\n  got  %s\n  want %s", tc.q, i, got[i], want[i])
				break
			}
		}
		if wantCols, gotCols := colNamesOf(t, single, tc.q), colNamesOf(t, coord, tc.q); gotCols != wantCols {
			t.Errorf("%s:\n columns %q, want %q", tc.q, gotCols, wantCols)
		}
	}

	// Fleet observability: the coordinator's system.queries view shows the
	// fragments of the statements above on every shard, tagged with their
	// coordinator query via origin_qid. A shard publishes its summary when
	// the fragment stream closes, which can trail the coordinator's own
	// completion by a scheduling beat — poll briefly.
	const fleetQ = "SELECT DISTINCT shard FROM system.queries WHERE shard <> 'coordinator' AND origin_qid > 0"
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		shards := rowsOf(t, coord, fleetQ)
		if len(shards) == 3 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("fleet system.queries shows fragments on %d shards %v, want 3", len(shards), shards)
		}
	}
}

// TestDistributedDML: UPDATE and DELETE broadcast to the shards, and the
// distributed view tracks the reference engine through mutation.
func TestDistributedDML(t *testing.T) {
	opts := db.Options{DefaultPartitions: 2}
	single := db.Open(opts)
	coord, _, _ := newCluster(t, 2, opts)
	seedEvents(t, single, coord, 300)

	for _, stmt := range []string{
		"UPDATE events SET v = v * 2 WHERE grp = 'g1'",
		"DELETE FROM events WHERE id % 7 = 0",
	} {
		if err := single.Exec(stmt); err != nil {
			t.Fatal(err)
		}
		if err := coord.Exec(stmt); err != nil {
			t.Fatal(err)
		}
	}
	q := "SELECT id, grp, v FROM events ORDER BY id"
	want := rowsOf(t, single, q)
	got := rowsOf(t, coord, q)
	if len(want) != len(got) {
		t.Fatalf("got %d rows, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("row %d: got %s want %s", i, got[i], want[i])
		}
	}

	if err := coord.Exec("DROP TABLE events"); err != nil {
		t.Fatal(err)
	}
	if _, err := coord.Query("SELECT COUNT(*) AS n FROM events"); err == nil {
		t.Fatal("events still queryable after DROP")
	}
}

// TestDistributedKillCancelsFragments is the cancellation e2e: a client
// kills a streaming distributed query mid-stream at the coordinator, and
// every shard fragment must terminate — observed through each shard's own
// flight recorder.
func TestDistributedKillCancelsFragments(t *testing.T) {
	opts := db.Options{DefaultPartitions: 2}
	coord, _, shards := newCluster(t, 2, opts)

	srv := server.New(coord, server.Config{QuerySlots: 4, QueueDepth: 8, IdleTimeout: time.Minute})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	t.Cleanup(func() { srv.Close() })
	for i := 0; srv.Addr() == nil && i < 100; i++ {
		time.Sleep(time.Millisecond)
	}
	dialCoord := func() *client.Client {
		c, err := client.Dial(srv.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		return c
	}

	admin := dialCoord()
	if err := admin.Exec("CREATE TABLE big (id INTEGER, pad VARCHAR) SHARD BY (id)"); err != nil {
		t.Fatal(err)
	}
	// The dataset must overflow every buffer between a shard fragment and
	// the stalled client (shard socket, exchange channel, coordinator
	// socket) or the fragments finish before the test can observe them
	// mid-stream. ~80MB comfortably exceeds loopback TCP autotuning.
	pad := strings.Repeat("x", 2000)
	const total = 40000
	for lo := 0; lo < total; lo += 1000 {
		var sb strings.Builder
		sb.WriteString("INSERT INTO big VALUES ")
		for i := lo; i < lo+1000; i++ {
			if i > lo {
				sb.WriteString(", ")
			}
			fmt.Fprintf(&sb, "(%d, '%s')", i, pad)
		}
		if err := admin.Exec(sb.String()); err != nil {
			t.Fatal(err)
		}
	}

	// Start streaming and stall after one row so wire backpressure keeps
	// the shard fragments mid-stream.
	streamer := dialCoord()
	rows, err := streamer.Query("SELECT id, pad FROM big")
	if err != nil {
		t.Fatal(err)
	}
	if rows.Next() == nil {
		t.Fatalf("no first row: %v", rows.Err())
	}

	// Find the coordinator's query ID in the fleet active-queries view and
	// confirm the same view already surfaces the shard fragments under the
	// same origin.
	var qid int64
	deadline := time.Now().Add(5 * time.Second)
	for qid == 0 && time.Now().Before(deadline) {
		b, err := coord.Query("SELECT query_id FROM system.active_queries WHERE shard = 'coordinator' AND sql = 'SELECT id, pad FROM big'")
		if err != nil {
			t.Fatal(err)
		}
		if b.Len() > 0 {
			qid = b.Vecs[0].Int64s()[0]
		} else {
			time.Sleep(5 * time.Millisecond)
		}
	}
	if qid == 0 {
		t.Fatal("distributed query never appeared in system.active_queries")
	}
	fragsSeen := false
	for !fragsSeen && time.Now().Before(deadline) {
		b, err := coord.Query(fmt.Sprintf(
			"SELECT COUNT(*) AS n FROM system.active_queries WHERE origin_qid = %d AND shard <> 'coordinator'", qid))
		if err != nil {
			t.Fatal(err)
		}
		if b.Len() > 0 && b.Vecs[0].Int64s()[0] >= 2 {
			fragsSeen = true
		} else {
			time.Sleep(5 * time.Millisecond)
		}
	}
	if !fragsSeen {
		t.Fatal("shard fragments never appeared in the fleet active-queries view")
	}

	if err := admin.Kill(uint64(qid)); err != nil {
		t.Fatalf("KILL %d: %v", qid, err)
	}

	// The streaming client observes the cancellation...
	if err := rows.Drain(); err == nil {
		t.Fatal("stream survived KILL")
	} else if !client.IsCanceled(err) {
		t.Fatalf("stream ended with %v, want a cancellation", err)
	}

	// ...and every shard's own recorder shows its fragment gone.
	for i, sh := range shards {
		cleared := false
		for !cleared && time.Now().Before(deadline.Add(5*time.Second)) {
			b, err := sh.db.Query(fmt.Sprintf(
				"SELECT COUNT(*) AS n FROM system.active_queries WHERE origin_qid = %d", qid))
			if err != nil {
				t.Fatal(err)
			}
			if b.Len() > 0 && b.Vecs[0].Int64s()[0] == 0 {
				cleared = true
			} else {
				time.Sleep(5 * time.Millisecond)
			}
		}
		if !cleared {
			t.Fatalf("shard %d fragment still active after KILL", i)
		}
	}
}

// TestShardedCreateValidation: SHARD BY is rejected on model tables and on
// columns that do not exist.
func TestShardedCreateValidation(t *testing.T) {
	coord, _, _ := newCluster(t, 2, db.Options{DefaultPartitions: 2})
	if err := coord.Exec("CREATE TABLE t (a INTEGER) SHARD BY (missing)"); err == nil {
		t.Fatal("SHARD BY on a missing column must fail")
	}
	if err := coord.Exec("CREATE MODEL TABLE m SHARD BY (a)"); err == nil {
		t.Fatal("SHARD BY on a model table must fail")
	}
}
