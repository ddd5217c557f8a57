package indbml

// Integration tests for the always-on query flight recorder: the same
// system.queries SQL must return correct live data through all three
// access paths — embedded (shell), wire protocol (server + client), and
// the ODBC baseline — and stay race-clean while the workload it observes
// is still running.

import (
	"context"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"indbml/internal/engine/db"
	"indbml/internal/engine/exec"
	"indbml/internal/engine/sql"
	"indbml/internal/flight"
	"indbml/internal/odbc"
	"indbml/internal/server"
	"indbml/internal/server/client"
	"indbml/internal/workload"
)

func demoDB(t *testing.T) *db.Database {
	t.Helper()
	d := db.Open(db.Options{DefaultPartitions: 2, Parallelism: 2})
	if err := workload.LoadDemo(d); err != nil {
		t.Fatal(err)
	}
	return d
}

var modelJoinSQL = "SELECT * FROM iris MODEL JOIN iris_model PREDICT (" +
	strings.Join(workload.IrisFeatureNames, ", ") + ") LIMIT 5"

// TestFlightRecorderEmbedded drives the acceptance query through the
// embedded path: per-approach counts and latency sums over live data.
func TestFlightRecorderEmbedded(t *testing.T) {
	d := demoDB(t)

	const plainRuns, mjRuns = 3, 2
	for i := 0; i < plainRuns; i++ {
		if _, err := d.Query("SELECT class, COUNT(*) AS n FROM iris GROUP BY class"); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < mjRuns; i++ {
		if _, err := d.Query(modelJoinSQL); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Exec("CREATE TABLE flight_t (id BIGINT, v DOUBLE)"); err != nil {
		t.Fatal(err)
	}
	if err := d.Exec("INSERT INTO flight_t VALUES (1, 0.5), (2, 1.5)"); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Query("SELECT * FROM no_such_table"); err == nil {
		t.Fatal("expected a failing query")
	}

	res, err := d.Query("SELECT approach, count(*) AS n, sum(latency_ns) AS total_ns " +
		"FROM system.queries GROUP BY approach ORDER BY approach")
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]struct {
		n       int64
		totalNS int64
	}{}
	for r := 0; r < res.Len(); r++ {
		got[res.Vecs[0].Strings()[r]] = struct {
			n       int64
			totalNS int64
		}{res.Vecs[1].Int64s()[r], res.Vecs[2].Int64s()[r]}
	}
	if g := got["modeljoin"]; g.n != mjRuns {
		t.Errorf("modeljoin count = %d, want %d", g.n, mjRuns)
	}
	// "sql" covers the plain SELECTs, the DDL/DML statements and the
	// failing SELECT — everything is recorded, success or not.
	if g := got["sql"]; g.n != plainRuns+3 {
		t.Errorf("sql count = %d, want %d (plain + create + insert + failed)", g.n, plainRuns+3)
	}
	for a, g := range got {
		if g.totalNS <= 0 {
			t.Errorf("approach %q: sum(latency_ns) = %d, want > 0", a, g.totalNS)
		}
	}

	// Statement kinds and the failure are attributed.
	res, err = d.Query("SELECT kind, count(*) AS n FROM system.queries GROUP BY kind ORDER BY kind")
	if err != nil {
		t.Fatal(err)
	}
	kinds := map[string]int64{}
	for r := 0; r < res.Len(); r++ {
		kinds[res.Vecs[0].Strings()[r]] = res.Vecs[1].Int64s()[r]
	}
	if kinds["create"] != 1 || kinds["insert"] != 1 {
		t.Errorf("kinds = %v, want one create and one insert", kinds)
	}
	res, err = d.Query("SELECT query_id, error FROM system.queries WHERE error <> '' ")
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 1 || !strings.Contains(res.Vecs[1].Strings()[0], "no_such_table") {
		t.Errorf("failed statements recorded = %d, want exactly the missing-table SELECT", res.Len())
	}

	// The MODEL JOIN summaries carry scan accounting and a cache verdict,
	// and their operator breakdown is one join away.
	res, err = d.Query("SELECT query_id, rows_in, bytes_scanned, cache FROM system.queries " +
		"WHERE approach = 'modeljoin' ORDER BY query_id")
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != mjRuns {
		t.Fatalf("modeljoin summaries = %d, want %d", res.Len(), mjRuns)
	}
	firstMJ := res.Vecs[0].Int64s()[0]
	for r := 0; r < res.Len(); r++ {
		if res.Vecs[1].Int64s()[r] <= 0 {
			t.Errorf("modeljoin rows_in = %d, want > 0", res.Vecs[1].Int64s()[r])
		}
		if res.Vecs[2].Int64s()[r] <= 0 {
			t.Errorf("modeljoin bytes_scanned = %d, want > 0", res.Vecs[2].Int64s()[r])
		}
	}
	if verdict := res.Vecs[3].Strings(); verdict[0] != "miss" || verdict[res.Len()-1] != "hit" {
		t.Errorf("cache verdicts = %v, want first miss then hit", verdict)
	}
	ops, err := d.Query(fmt.Sprintf(
		"SELECT op, wall_ns, rows FROM system.query_operators WHERE query_id = %d AND counter = ''", firstMJ))
	if err != nil {
		t.Fatal(err)
	}
	var sawModelJoin, sawScan bool
	for r := 0; r < ops.Len(); r++ {
		op := ops.Vecs[0].Strings()[r]
		sawModelJoin = sawModelJoin || strings.HasPrefix(op, "ModelJoin")
		sawScan = sawScan || strings.HasPrefix(op, "Scan")
	}
	if !sawModelJoin || !sawScan {
		t.Errorf("operator drill-down missing ModelJoin/Scan rows (got %d rows)", ops.Len())
	}

	// system.model_cache reflects the cached artifact.
	res, err = d.Query("SELECT model FROM system.model_cache")
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 1 || res.Vecs[0].Strings()[0] != "iris_model" {
		t.Errorf("model_cache rows = %d, want the iris_model entry", res.Len())
	}
}

// TestFlightRecorderEveryPath: there is one SELECT path, so the same MODEL
// JOIN leaves the same trail whichever entry point ran it — exactly one
// system.queries row carrying a per-operator breakdown, one
// system.statement_stats call, and nothing left in system.active_queries.
func TestFlightRecorderEveryPath(t *testing.T) {
	ctx := context.Background()
	drain := func(op exec.Operator, err error) error {
		if err != nil {
			return err
		}
		_, err = exec.Collect(op)
		return err
	}
	paths := []struct {
		name string
		run  func(t *testing.T, d *db.Database) error
	}{
		{"Query", func(_ *testing.T, d *db.Database) error {
			_, err := d.Query(modelJoinSQL)
			return err
		}},
		{"QueryContext", func(_ *testing.T, d *db.Database) error {
			_, err := d.QueryContext(ctx, modelJoinSQL)
			return err
		}},
		{"QueryOp", func(_ *testing.T, d *db.Database) error {
			return drain(d.QueryOp(modelJoinSQL))
		}},
		{"QueryOpContext", func(_ *testing.T, d *db.Database) error {
			return drain(d.QueryOpContext(ctx, modelJoinSQL))
		}},
		{"QueryOpTracedContext", func(_ *testing.T, d *db.Database) error {
			op, _, err := d.QueryOpTracedContext(ctx, modelJoinSQL)
			return drain(op, err)
		}},
		{"Run", func(_ *testing.T, d *db.Database) error {
			res, err := d.Run(ctx, sql.ParseNormalized(modelJoinSQL, false), nil)
			return drain(res.Op, err)
		}},
		{"ExplainAnalyze", func(_ *testing.T, d *db.Database) error {
			_, err := d.Run(ctx, sql.ParseNormalized("EXPLAIN ANALYZE "+modelJoinSQL, false), nil)
			return err
		}},
		{"wire", func(t *testing.T, d *db.Database) error {
			rows, err := dialServer(t, d, server.Config{}).Query(modelJoinSQL)
			if err != nil {
				return err
			}
			return rows.Drain()
		}},
		{"odbc", func(_ *testing.T, d *db.Database) error {
			rows, err := odbc.Query(d, modelJoinSQL)
			if err != nil {
				return err
			}
			for rows.Next() != nil {
			}
			return rows.Err()
		}},
	}
	for _, p := range paths {
		t.Run(p.name, func(t *testing.T) {
			d := demoDB(t)
			if err := p.run(t, d); err != nil {
				t.Fatal(err)
			}
			rec := d.FlightRecorder()
			queries := rec.Snapshot()
			if len(queries) != 1 {
				t.Fatalf("system.queries rows = %d, want 1", len(queries))
			}
			q := queries[0]
			if q.Kind != "select" || q.Approach != "modeljoin" || q.RowsOut != 5 || q.Error != "" {
				t.Errorf("summary = kind %q approach %q rows_out %d error %q", q.Kind, q.Approach, q.RowsOut, q.Error)
			}
			var sawModelJoin bool
			for _, op := range q.Ops {
				sawModelJoin = sawModelJoin || strings.HasPrefix(op.Op, "ModelJoin")
			}
			if !sawModelJoin {
				t.Errorf("system.query_operators breakdown has no ModelJoin row (%d operators)", len(q.Ops))
			}
			stats := rec.Stats().Snapshot()
			if len(stats) != 1 || stats[0].Calls != 1 || stats[0].Fingerprint != q.Fingerprint {
				t.Errorf("system.statement_stats = %+v, want one call of fingerprint %x", stats, q.Fingerprint)
			}
			if live := rec.Live(); len(live) != 0 {
				t.Errorf("system.active_queries still holds %d statements", len(live))
			}
		})
	}

	// The former "negative = disabled" sentinels are plain out-of-range
	// values now: they select the defaults, like 0.
	t.Run("negative sizes select defaults", func(t *testing.T) {
		d := db.Open(db.Options{DefaultPartitions: 2, Parallelism: 2, FlightRecorderSize: -1})
		if got := d.FlightRecorder().Capacity(); got != flight.DefaultSize {
			t.Errorf("recorder capacity = %d, want the default %d", got, flight.DefaultSize)
		}
	})
}

// dialServer serves d on a loopback listener and returns a connected
// client; both are torn down with the test.
func dialServer(t *testing.T, d *db.Database, cfg server.Config) *client.Client {
	t.Helper()
	s := server.New(d, cfg)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go s.Serve(ln)
	t.Cleanup(func() { s.Close() })
	c, err := client.Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// TestFlightRecorderOverWire: the server propagates the flight query ID on
// MsgDone, and system.queries is a plain SELECT away for remote clients.
func TestFlightRecorderOverWire(t *testing.T) {
	d := demoDB(t)
	c := dialServer(t, d, server.Config{QuerySlots: 4, QueueDepth: 8, IdleTimeout: time.Minute})

	rows, err := c.Query(modelJoinSQL)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for rows.Next() != nil {
		n++
	}
	if err := rows.Err(); err != nil {
		t.Fatal(err)
	}
	if n != 5 {
		t.Fatalf("rows = %d, want 5", n)
	}
	qid := rows.QueryID()
	if qid == 0 {
		t.Fatal("wire client got no flight query ID on MsgDone")
	}

	// Look our own statement up by the ID the server handed back.
	look, err := c.Query(fmt.Sprintf(
		"SELECT approach, rows_out, queue_wait_ns FROM system.queries WHERE query_id = %d", qid))
	if err != nil {
		t.Fatal(err)
	}
	row := look.Next()
	if row == nil {
		t.Fatalf("query_id %d not found in system.queries", qid)
	}
	if row[0].(string) != "modeljoin" {
		t.Errorf("approach = %v, want modeljoin", row[0])
	}
	if row[1].(int64) != 5 {
		t.Errorf("rows_out = %v, want 5 (rows actually streamed)", row[1])
	}
	if look.Drain() != nil || look.QueryID() == 0 {
		t.Error("lookup query itself should carry a query ID")
	}

	// The acceptance aggregation works remotely too.
	agg, err := c.Query("SELECT approach, count(*) AS n, sum(latency_ns) AS total_ns " +
		"FROM system.queries GROUP BY approach")
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for row := agg.Next(); row != nil; row = agg.Next() {
		if row[0].(string) == "modeljoin" && row[1].(int64) >= 1 && row[2].(int64) > 0 {
			found = true
		}
	}
	if err := agg.Err(); err != nil {
		t.Fatal(err)
	}
	if !found {
		t.Error("remote per-approach aggregation missing the modeljoin row")
	}

	// The server registers system.metrics; latency buckets carry exemplar
	// query IDs pointing back at recorded statements.
	mrows, err := c.Query("SELECT name, label, exemplar_query_id FROM system.metrics " +
		"WHERE name = 'vectordb_statement_seconds'")
	if err != nil {
		t.Fatal(err)
	}
	sawExemplar := false
	for row := mrows.Next(); row != nil; row = mrows.Next() {
		if row[2].(int64) > 0 {
			sawExemplar = true
		}
	}
	if err := mrows.Err(); err != nil {
		t.Fatal(err)
	}
	if !sawExemplar {
		t.Error("no latency bucket carries an exemplar query ID")
	}
}

// TestFlightRecorderODBC: the ODBC baseline path records statements and
// exposes the same system tables and query IDs.
func TestFlightRecorderODBC(t *testing.T) {
	d := demoDB(t)
	sess := odbc.Connect(d)
	defer sess.Close()

	rows, err := sess.Query("SELECT class, COUNT(*) AS n FROM iris GROUP BY class")
	if err != nil {
		t.Fatal(err)
	}
	for rows.Next() != nil {
	}
	if err := rows.Err(); err != nil {
		t.Fatal(err)
	}
	qid := rows.QueryID()
	if qid == 0 {
		t.Fatal("ODBC rows carry no flight query ID")
	}
	look, err := sess.Query(fmt.Sprintf(
		"SELECT kind, approach FROM system.queries WHERE query_id = %d", qid))
	if err != nil {
		t.Fatal(err)
	}
	row := look.Next()
	if row == nil {
		t.Fatalf("query_id %d not in system.queries via ODBC", qid)
	}
	if row[0].(string) != "select" || row[1].(string) != "sql" {
		t.Errorf("kind/approach = %v/%v", row[0], row[1])
	}
	for look.Next() != nil {
	}
}

// TestFlightRecorderConcurrent runs parallel SELECT, DML and MODEL JOIN
// traffic while other goroutines continuously scan system.queries and
// system.query_operators. Under -race this is the proof that snapshot
// reads and ring publishes never conflict.
func TestFlightRecorderConcurrent(t *testing.T) {
	d := demoDB(t)
	if err := d.Exec("CREATE TABLE flight_dml (id BIGINT, v DOUBLE)"); err != nil {
		t.Fatal(err)
	}

	const iters = 40
	var wg sync.WaitGroup
	errc := make(chan error, 5*iters)
	run := func(fn func(i int) error) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				if err := fn(i); err != nil {
					errc <- err
					return
				}
			}
		}()
	}
	run(func(int) error {
		_, err := d.Query("SELECT class, COUNT(*) AS n FROM iris GROUP BY class")
		return err
	})
	run(func(int) error {
		_, err := d.Query(modelJoinSQL)
		return err
	})
	run(func(i int) error {
		return d.Exec(fmt.Sprintf("INSERT INTO flight_dml VALUES (%d, %d.5)", i, i))
	})
	run(func(int) error {
		_, err := d.Query("SELECT approach, count(*) AS n FROM system.queries GROUP BY approach")
		return err
	})
	run(func(int) error {
		_, err := d.Query("SELECT query_id, op, wall_ns FROM system.query_operators")
		return err
	})
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}

	rec := d.FlightRecorder()
	if rec == nil {
		t.Fatal("recorder missing")
	}
	// Everything above plus the CREATE must have been published.
	if got, want := rec.Recorded(), uint64(5*iters+1); got != want {
		t.Errorf("recorded = %d, want %d", got, want)
	}
}
