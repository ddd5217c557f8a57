package dist_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"indbml/internal/engine/db"
	"indbml/internal/engine/exec"
	"indbml/internal/engine/vector"
	"indbml/internal/server"
	"indbml/internal/server/client"
	"indbml/internal/trace"
)

// queryAnalyze runs a SELECT and returns its rows with its trace, which
// closing the operator tree has finished.
func queryAnalyze(d *db.Database, q string) (*vector.Batch, *trace.QueryTrace, error) {
	op, qt, err := d.QueryOpTracedContext(context.Background(), q)
	if err != nil {
		return nil, nil, err
	}
	res, err := exec.Collect(op)
	return res, qt, err
}

// shardSpansOf collects the per-shard exchange source spans ("shard N
// (addr)") from a stitched trace snapshot.
func shardSpansOf(st trace.SpanStat) []trace.SpanStat {
	var out []trace.SpanStat
	var walk func(trace.SpanStat)
	walk = func(s trace.SpanStat) {
		if strings.HasPrefix(s.Name, "shard ") {
			out = append(out, s)
			return
		}
		for _, c := range s.Children {
			walk(c)
		}
	}
	walk(st)
	return out
}

func counterOf(s trace.SpanStat, name string) (int64, bool) {
	for _, c := range s.Counters {
		if c.Name == name {
			return c.Value, true
		}
	}
	return 0, false
}

// TestDistributedExplainAnalyzeReconciliation is the stitched-tracing
// correctness core: across the same 13 query shapes as the differential
// suite, a traced distributed statement must produce one span tree with
// exactly one exchange source span per shard, each carrying the shard's
// full grafted subtree whose root rowcount equals the rows that source
// streamed — and for pass-through shapes (no coordinator-side reduction)
// the per-shard rowcounts must sum to the plain distributed SELECT result.
func TestDistributedExplainAnalyzeReconciliation(t *testing.T) {
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
		q string
		// passThrough marks shapes the coordinator merges without reducing:
		// exchange rows must equal the result rowcount exactly.
		passThrough bool
	}{
		{"SELECT * FROM events", true},
		{"SELECT id, v FROM events WHERE id % 3 = 0 AND v > 50", true},
		{"SELECT id, v FROM events ORDER BY v DESC LIMIT 10", false},
		{"SELECT * FROM events ORDER BY id LIMIT 7", false},
		{"SELECT DISTINCT grp FROM events", false},
		{"SELECT COUNT(*) AS n FROM events", false},
		{"SELECT COUNT(*) AS n, SUM(v) AS s, MIN(v) AS lo, MAX(v) AS hi, AVG(v) AS mean FROM events", false},
		{"SELECT grp, COUNT(*) AS n, AVG(v) AS mean FROM events GROUP BY grp ORDER BY grp", false},
		{"SELECT grp, SUM(v) AS s FROM events WHERE id < 500 GROUP BY grp HAVING COUNT(*) > 50 ORDER BY s DESC", false},
		{"SELECT grp, MAX(v) - MIN(v) AS spread FROM events GROUP BY grp ORDER BY grp", false},
		{"SELECT AVG(v) AS mean FROM events WHERE id > 100000", false}, // empty input
		{"SELECT id, prediction_0, prediction_1 FROM events MODEL JOIN dist_model PREDICT (f1, f2, f3, f4) WHERE id < 200", true},
		{"SELECT COUNT(*) AS n, AVG(prediction_0) AS p FROM events MODEL JOIN dist_model PREDICT (f1, f2, f3, f4)", false},
	}
	for _, tc := range cases {
		res, qt, err := queryAnalyze(coord, tc.q)
		if err != nil {
			t.Fatalf("%s: %v", tc.q, err)
		}
		if qt == nil || qt.Root == nil {
			t.Fatalf("%s: no trace", tc.q)
		}
		st := qt.Root.Stat()
		if st.Rows != int64(res.Len()) {
			t.Errorf("%s: root span rows = %d, result rows = %d", tc.q, st.Rows, res.Len())
		}
		srcs := shardSpansOf(st)
		if len(srcs) != 3 {
			t.Fatalf("%s: %d shard source spans, want 3:\n%s", tc.q, len(srcs), qt.Render())
		}
		var sum int64
		for _, s := range srcs {
			sum += s.Rows
			if len(s.Children) != 1 {
				t.Errorf("%s: %s has %d grafted subtrees, want 1", tc.q, s.Name, len(s.Children))
				continue
			}
			frag := s.Children[0]
			if frag.Rows != s.Rows {
				t.Errorf("%s: %s streamed %d rows but its grafted subtree root (%s) reports %d",
					tc.q, s.Name, s.Rows, frag.Name, frag.Rows)
			}
			if _, ok := counterOf(s, "fanout_connect_ns"); !ok {
				t.Errorf("%s: %s missing fanout_connect_ns", tc.q, s.Name)
			}
			if _, ok := counterOf(s, "first_row_ns"); !ok && s.Rows > 0 {
				t.Errorf("%s: %s streamed %d rows without first_row_ns", tc.q, s.Name, s.Rows)
			}
			if v, ok := counterOf(s, "last_row_ns"); !ok || v <= 0 {
				t.Errorf("%s: %s last_row_ns = %d/%v", tc.q, s.Name, v, ok)
			}
			if v, ok := counterOf(s, "wire_bytes_in"); !ok || (s.Rows > 0 && v <= 0) {
				t.Errorf("%s: %s wire_bytes_in = %d/%v with %d rows", tc.q, s.Name, v, ok, s.Rows)
			}
		}
		if tc.passThrough {
			if sum != int64(res.Len()) {
				t.Errorf("%s: shard subtree rows sum to %d, plain result has %d", tc.q, sum, res.Len())
			}
		}
		if strings.Contains(tc.q, "MODEL JOIN") {
			render := qt.Render()
			if !strings.Contains(render, "ModelJoin") || !strings.Contains(render, "cache=") ||
				!strings.Contains(render, "sgemm") {
				t.Errorf("%s: stitched render missing shard-side ModelJoin detail:\n%s", tc.q, render)
			}
		}
	}
}

// TestFleetOperatorsDuringConcurrentModelJoins races fleet-wide
// system.query_operators scans against concurrent traced sharded MODEL
// JOINs (run under -race), then checks the acceptance property: the fleet
// view returns shard-attributed operator rows correlated to a coordinator
// query via origin_qid.
func TestFleetOperatorsDuringConcurrentModelJoins(t *testing.T) {
	opts := db.Options{DefaultPartitions: 2, Parallelism: 2}
	single := db.Open(opts)
	coord, co, _ := newCluster(t, 2, opts)
	seedEvents(t, single, coord, 400)
	registerTestModel(t, coord)
	if err := co.ReplicateModel(context.Background(), "dist_model"); err != nil {
		t.Fatal(err)
	}

	const q = "SELECT COUNT(*) AS n, AVG(prediction_0) AS p FROM events MODEL JOIN dist_model PREDICT (f1, f2, f3, f4)"
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := coord.Query("SELECT shard, query_id, origin_qid, op, wall_ns, rows FROM system.query_operators"); err != nil {
				t.Errorf("fleet operators scan: %v", err)
				return
			}
		}
	}()
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 4; i++ {
				if _, _, err := queryAnalyze(coord, q); err != nil {
					t.Errorf("traced model join: %v", err)
					return
				}
			}
		}()
	}
	time.Sleep(50 * time.Millisecond)
	close(stop)
	wg.Wait()

	// Correlation: take the newest coordinator-side run of q and demand
	// shard-attributed operator rows under its query ID. Shard summaries
	// publish when the fragment stream closes, which can trail the
	// coordinator's own completion by a scheduling beat — poll briefly.
	b, err := coord.Query(fmt.Sprintf(
		"SELECT MAX(query_id) AS qid FROM system.queries WHERE shard = 'coordinator' AND sql = '%s'", q))
	if err != nil {
		t.Fatal(err)
	}
	if b.Len() != 1 {
		t.Fatalf("coordinator query not in system.queries")
	}
	qid := b.Vecs[0].Int64s()[0]
	deadline := time.Now().Add(5 * time.Second)
	for {
		b, err = coord.Query(fmt.Sprintf(
			"SELECT op FROM system.query_operators WHERE origin_qid = %d AND shard <> 'coordinator' AND counter = ''", qid))
		if err != nil {
			t.Fatal(err)
		}
		var modelJoins int
		for r := 0; r < b.Len(); r++ {
			if strings.HasPrefix(b.Vecs[0].Datum(r).S, "ModelJoin") {
				modelJoins++
			}
		}
		if modelJoins >= 2 {
			break // ModelJoin operator rows from both shards, attributed to qid
		}
		if time.Now().After(deadline) {
			t.Fatalf("no shard-attributed ModelJoin operator rows for origin_qid=%d (%d of 2)",
				qid, modelJoins)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestSystemShardsHealth: the coordinator's system.shards table tracks
// per-shard liveness, fragment traffic, and the error ledger through a
// shard outage.
func TestSystemShardsHealth(t *testing.T) {
	opts := db.Options{DefaultPartitions: 2}
	single := db.Open(opts)
	coord, _, shards := newCluster(t, 2, opts)
	seedEvents(t, single, coord, 100)

	b, err := coord.Query("SELECT shard_id, reachable, fragments, fragment_errors, last_error FROM system.shards ORDER BY shard_id")
	if err != nil {
		t.Fatal(err)
	}
	if b.Len() != 2 {
		t.Fatalf("system.shards has %d rows, want 2", b.Len())
	}
	for r := 0; r < b.Len(); r++ {
		if !b.Vecs[1].Bools()[r] {
			t.Errorf("shard %d unreachable at boot", r)
		}
		if b.Vecs[3].Int64s()[r] != 0 || !b.Vecs[4].Datum(r).Null {
			t.Errorf("shard %d has errors before any failure", r)
		}
	}

	if _, err := coord.Query("SELECT COUNT(*) AS n FROM events"); err != nil {
		t.Fatal(err)
	}
	b, err = coord.Query("SELECT MIN(fragments) AS f FROM system.shards")
	if err != nil {
		t.Fatal(err)
	}
	if b.Vecs[0].Int64s()[0] < 1 {
		t.Fatal("fragment counters did not advance after a distributed query")
	}

	// Take shard 0 down: the probe must flip, and a distributed query must
	// fail and land in the error ledger.
	shards[0].srv.Close()
	b, err = coord.Query("SELECT reachable FROM system.shards WHERE shard_id = 0")
	if err != nil {
		t.Fatal(err)
	}
	if b.Len() != 1 || b.Vecs[0].Bools()[0] {
		t.Fatal("dead shard still reads reachable")
	}
	if _, err := coord.Query("SELECT COUNT(*) AS n FROM events"); err == nil {
		t.Fatal("distributed query survived a dead shard")
	}
	b, err = coord.Query("SELECT fragment_errors, last_error FROM system.shards WHERE shard_id = 0")
	if err != nil {
		t.Fatal(err)
	}
	if b.Vecs[0].Int64s()[0] < 1 || b.Vecs[1].Datum(0).Null {
		t.Fatal("fragment failure not recorded in the shard health ledger")
	}
}

// TestStatusShardsLine: STATUS on a coordinator server reports the fleet
// health summary line.
func TestStatusShardsLine(t *testing.T) {
	opts := db.Options{DefaultPartitions: 2}
	single := db.Open(opts)
	coord, _, _ := newCluster(t, 2, opts)
	seedEvents(t, single, coord, 50)

	srv := server.New(coord, server.Config{QuerySlots: 2, QueueDepth: 4, IdleTimeout: time.Minute})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	t.Cleanup(func() { srv.Close() })
	for i := 0; srv.Addr() == nil && i < 100; i++ {
		time.Sleep(time.Millisecond)
	}
	c, err := client.Dial(srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })

	status, err := c.Status()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(status, "shards: count=2 reachable=2") {
		t.Fatalf("STATUS missing shards line:\n%s", status)
	}
}

// syncBuffer is a mutex-guarded bytes.Buffer: the slow log writes from
// session goroutines while the test reads.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestSlowLogEmbedsShardSubtrees: a distributed statement logged by the
// coordinator's slow-query log carries the stitched per-shard subtree, so
// a logged straggler names the shard without re-running the query.
func TestSlowLogEmbedsShardSubtrees(t *testing.T) {
	opts := db.Options{DefaultPartitions: 2}
	single := db.Open(opts)
	coord, _, _ := newCluster(t, 2, opts)
	seedEvents(t, single, coord, 200)

	logBuf := &syncBuffer{}
	srv := server.New(coord, server.Config{
		QuerySlots: 2, QueueDepth: 4, IdleTimeout: time.Minute,
		SlowQueryLog: logBuf, SlowQueryThreshold: 0, // log every statement
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	t.Cleanup(func() { srv.Close() })
	for i := 0; srv.Addr() == nil && i < 100; i++ {
		time.Sleep(time.Millisecond)
	}
	c, err := client.Dial(srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })

	rows, err := c.Query("SELECT id, v FROM events WHERE id < 50")
	if err != nil {
		t.Fatal(err)
	}
	if err := rows.Drain(); err != nil {
		t.Fatal(err)
	}

	type planNode struct {
		Op       string     `json:"op"`
		Rows     int64      `json:"rows"`
		Children []planNode `json:"children"`
	}
	var entry struct {
		Trace struct {
			SQL  string   `json:"sql"`
			Plan planNode `json:"plan"`
		} `json:"trace"`
	}
	deadline := time.Now().Add(5 * time.Second)
	var found bool
	for !found && time.Now().Before(deadline) {
		for _, line := range strings.Split(logBuf.String(), "\n") {
			if !strings.Contains(line, "SELECT id, v FROM events") {
				continue
			}
			if err := json.Unmarshal([]byte(line), &entry); err != nil {
				t.Fatalf("bad log line %q: %v", line, err)
			}
			found = true
			break
		}
		if !found {
			time.Sleep(5 * time.Millisecond)
		}
	}
	if !found {
		t.Fatalf("statement never logged:\n%s", logBuf.String())
	}

	var shardNodes int
	var walk func(planNode)
	walk = func(n planNode) {
		if strings.HasPrefix(n.Op, "shard ") {
			shardNodes++
			if len(n.Children) == 0 {
				t.Errorf("logged shard span %q has no grafted subtree", n.Op)
			}
		}
		for _, ch := range n.Children {
			walk(ch)
		}
	}
	walk(entry.Trace.Plan)
	if shardNodes != 2 {
		t.Fatalf("logged plan names %d shards, want 2:\n%s", shardNodes, logBuf.String())
	}
}
