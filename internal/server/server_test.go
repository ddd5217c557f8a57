package server

import (
	"context"
	"fmt"
	"net"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"indbml/internal/core/relmodel"
	"indbml/internal/engine/db"
	"indbml/internal/nn"
	"indbml/internal/server/client"
	"indbml/internal/workload"
)

// newTestDB seeds a database with the iris fact table (nRows rows) and a
// registered classifier whose hidden width is tunable — wide hidden layers
// make MODEL JOIN queries arbitrarily slow, which the cancellation tests
// exploit.
func newTestDB(t *testing.T, nRows, hidden int) *db.Database {
	t.Helper()
	return newTestDBOpts(t, nRows, hidden, db.Options{DefaultPartitions: 4, Parallelism: 4})
}

func newTestDBOpts(t *testing.T, nRows, hidden int, opts db.Options) *db.Database {
	t.Helper()
	d := db.Open(opts)
	tbl, _ := workload.IrisTable("iris", nRows, 4)
	d.RegisterTable(tbl)
	model := &nn.Model{Name: "iris_model", Layers: []nn.Layer{
		nn.NewDense(4, hidden, nn.Tanh),
		nn.NewDense(hidden, hidden, nn.Tanh),
		nn.NewDense(hidden, 3, nn.Sigmoid),
	}}
	workload.SeedDense(model, 42)
	if _, err := d.RegisterModel(model, relmodel.ExportOptions{Partitions: 4}); err != nil {
		t.Fatal(err)
	}
	return d
}

// startServer serves on a loopback port and tears everything down with the
// test.
func startServer(t *testing.T, d *db.Database, cfg Config) *Server {
	t.Helper()
	s := New(d, cfg)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go s.Serve(ln)
	t.Cleanup(func() { s.Close() })
	// Serve stores the listener before accepting; give it a beat.
	for i := 0; s.Addr() == nil && i < 100; i++ {
		time.Sleep(time.Millisecond)
	}
	return s
}

func dial(t *testing.T, s *Server) *client.Client {
	t.Helper()
	c, err := client.Dial(s.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// TestEndToEndConcurrentClients is the acceptance scenario: one in-process
// server, ≥8 concurrent clients mixing reads, a MODEL JOIN inference
// query, DDL/DML on a fresh table, STATUS probes, and a mid-scan
// cancellation that must come back well within the query's natural
// runtime. Run under -race this also proves the catalog and admission path
// race-clean.
func TestEndToEndConcurrentClients(t *testing.T) {
	d := newTestDB(t, 20000, 16)
	s := startServer(t, d, Config{QuerySlots: 8, QueueDepth: 16, IdleTimeout: time.Minute})

	const clients = 9
	var wg sync.WaitGroup
	errs := make(chan error, clients*4)
	report := func(err error) {
		if err != nil {
			select {
			case errs <- err:
			default:
			}
		}
	}

	// Clients 0-4: repeated scans and aggregates, one of them MODEL JOIN.
	for i := 0; i < 5; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			c, err := client.Dial(s.Addr().String())
			if err != nil {
				report(err)
				return
			}
			defer c.Close()
			queries := []string{
				"SELECT COUNT(*) AS n FROM iris",
				"SELECT class, COUNT(*) AS n FROM iris GROUP BY class ORDER BY class",
				"SELECT id, sepal_length FROM iris WHERE id < 100 ORDER BY id",
			}
			if id == 0 {
				queries = append(queries, "SELECT COUNT(*) AS n, AVG(prediction_0) AS p FROM iris MODEL JOIN iris_model PREDICT (sepal_length, sepal_width, petal_length, petal_width)")
			}
			for round := 0; round < 3; round++ {
				for _, q := range queries {
					rows, err := c.Query(q)
					if err != nil {
						report(fmt.Errorf("client %d: %q: %w", id, q, err))
						return
					}
					n := 0
					for rows.Next() != nil {
						n++
					}
					if err := rows.Err(); err != nil {
						report(fmt.Errorf("client %d: %q: %w", id, q, err))
						return
					}
					if n == 0 {
						report(fmt.Errorf("client %d: %q returned no rows", id, q))
						return
					}
				}
			}
		}(i)
	}

	// Clients 5-6: DDL + DML on private tables while reads are in flight.
	for i := 5; i < 7; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			c, err := client.Dial(s.Addr().String())
			if err != nil {
				report(err)
				return
			}
			defer c.Close()
			name := fmt.Sprintf("t%d", id)
			if err := c.Exec("CREATE TABLE " + name + " (id BIGINT, v DOUBLE)"); err != nil {
				report(err)
				return
			}
			for round := 0; round < 5; round++ {
				if err := c.Exec(fmt.Sprintf("INSERT INTO %s VALUES (%d, 0.5), (%d, 1.5)", name, 2*round, 2*round+1)); err != nil {
					report(err)
					return
				}
			}
			rows, err := c.Query("SELECT COUNT(*) AS n FROM " + name)
			if err != nil {
				report(err)
				return
			}
			row := rows.Next()
			if row == nil || row[0].(int64) != 10 {
				report(fmt.Errorf("client %d: got %v, want 10 rows in %s", id, row, name))
			}
			rows.Drain()
		}(i)
	}

	// Client 7: STATUS probes throughout.
	wg.Add(1)
	go func() {
		defer wg.Done()
		c, err := client.Dial(s.Addr().String())
		if err != nil {
			report(err)
			return
		}
		defer c.Close()
		for round := 0; round < 10; round++ {
			txt, err := c.Status()
			if err != nil {
				report(err)
				return
			}
			if !strings.Contains(txt, "queries:") {
				report(fmt.Errorf("STATUS payload malformed: %q", txt))
				return
			}
			time.Sleep(2 * time.Millisecond)
		}
	}()

	// Client 8: EXPLAIN round-trips.
	wg.Add(1)
	go func() {
		defer wg.Done()
		c, err := client.Dial(s.Addr().String())
		if err != nil {
			report(err)
			return
		}
		defer c.Close()
		txt, err := c.Command("EXPLAIN SELECT class, COUNT(*) AS n FROM iris GROUP BY class")
		if err != nil {
			report(err)
			return
		}
		if !strings.Contains(txt, "Scan iris") {
			report(fmt.Errorf("EXPLAIN payload malformed: %q", txt))
		}
	}()

	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	st := s.stats.snapshot()
	if st.Completed == 0 || st.RowsServed == 0 {
		t.Errorf("stats not accounting: %+v", st)
	}
}

// TestCancellationMidScan issues a MODEL JOIN sized to run for tens of
// seconds and cancels it with a 100ms client deadline: the error must come
// back orders of magnitude sooner than the query would take, proving the
// ctx check inside the Volcano Next loop fires mid-scan and frees the
// slot.
func TestCancellationMidScan(t *testing.T) {
	d := newTestDB(t, 300000, 512)
	s := startServer(t, d, Config{QuerySlots: 2})
	c := dial(t, s)

	start := time.Now()
	rows, err := c.QueryTimeout(
		"SELECT COUNT(*) AS n FROM iris MODEL JOIN iris_model PREDICT (sepal_length, sepal_width, petal_length, petal_width)",
		100*time.Millisecond)
	var terminal error
	if err != nil {
		terminal = err
	} else {
		for rows.Next() != nil {
		}
		terminal = rows.Err()
	}
	elapsed := time.Since(start)

	if terminal == nil {
		t.Fatalf("query completed in %v despite 100ms deadline", elapsed)
	}
	if !client.IsCanceled(terminal) {
		t.Fatalf("terminal error is not a cancellation: %v", terminal)
	}
	// The uncancelled query needs tens of seconds (300k rows × 512×512
	// GEMMs); a prompt cancellation returns within one in-flight batch.
	if elapsed > 10*time.Second {
		t.Fatalf("cancellation took %v; not prompt", elapsed)
	}

	// The slot must be free again: a fresh cheap query succeeds.
	rows2, err := c.Query("SELECT COUNT(*) AS n FROM iris")
	if err != nil {
		t.Fatalf("slot not released after cancellation: %v", err)
	}
	if row := rows2.Next(); row == nil || row[0].(int64) != 300000 {
		t.Fatalf("post-cancel query wrong: %v", row)
	}
	rows2.Drain()

	if got := s.stats.Canceled.Value(); got == 0 {
		t.Error("canceled counter not incremented")
	}
}

// TestDeadlineMidStream: a deadline that fires after the server has
// already streamed batch frames ends the stream with a CodeCanceled error
// frame after those rows, and the session stays usable. The deadline starts
// short and doubles until some rows beat it.
func TestDeadlineMidStream(t *testing.T) {
	d := newTestDB(t, 300000, 512)
	s := startServer(t, d, Config{QuerySlots: 2})
	c := dial(t, s)

	const q = "SELECT id, prediction_0 FROM iris MODEL JOIN iris_model PREDICT (sepal_length, sepal_width, petal_length, petal_width)"
	for timeout := 100 * time.Millisecond; ; timeout *= 2 {
		rows, err := c.QueryTimeout(q, timeout)
		if err != nil {
			t.Fatal(err)
		}
		n := 0
		for rows.Next() != nil {
			n++
		}
		if err := rows.Err(); !client.IsCanceled(err) {
			t.Fatalf("deadline %v: %d rows, then %v; want a cancellation", timeout, n, err)
		}
		if n > 0 {
			break
		}
		if timeout > 5*time.Second {
			t.Fatal("no row arrived before any deadline")
		}
	}

	rows, err := c.Query("SELECT COUNT(*) AS n FROM iris")
	if err != nil {
		t.Fatalf("session unusable after the canceled stream: %v", err)
	}
	if row := rows.Next(); row == nil || row[0].(int64) != 300000 {
		t.Fatalf("post-cancel query = %v (%v)", row, rows.Err())
	}
	rows.Drain()
}

// slotHog is a statement that runs far longer than any test waits on it: a
// self-join COUNT(*) over the iris table. It holds its admission slot until
// it is canceled, which reaches it at the next probe batch.
const slotHog = "SELECT COUNT(*) AS n FROM iris AS a JOIN iris AS b ON a.class = b.class WHERE b.id < 30000"

// TestOverloadFastReject fills the single query slot with a long-running
// query and checks that, with no queue, the next statement is rejected
// immediately with the overload code.
func TestOverloadFastReject(t *testing.T) {
	d := newTestDB(t, 300000, 8)
	s := startServer(t, d, Config{QuerySlots: 1, QueueDepth: 0})

	slow := dial(t, s)
	done := make(chan struct{})
	go func() {
		defer close(done)
		rows, err := slow.QueryTimeout(slotHog, 5*time.Second)
		if err == nil {
			rows.Drain()
		}
	}()

	// Wait until the slow query holds the slot.
	deadline := time.Now().Add(5 * time.Second)
	for s.stats.Running.Value() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("slow query never started running")
		}
		time.Sleep(time.Millisecond)
	}

	fast := dial(t, s)
	start := time.Now()
	err := fast.Exec("CREATE TABLE nope (id BIGINT)")
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("expected overload rejection")
	}
	if !client.IsOverloaded(err) {
		t.Fatalf("expected overload code, got: %v", err)
	}
	if elapsed > time.Second {
		t.Fatalf("fast-reject took %v; not fast", elapsed)
	}
	if s.stats.Rejected.Value() == 0 {
		t.Error("rejected counter not incremented")
	}
	// STATUS must bypass admission control even under overload.
	if _, err := fast.Status(); err != nil {
		t.Fatalf("STATUS rejected under overload: %v", err)
	}
	_ = done
}

// slowWriter is a slow-query log that takes d to write each line.
type slowWriter struct{ d time.Duration }

func (w slowWriter) Write(p []byte) (int, error) {
	time.Sleep(w.d)
	return len(p), nil
}

// TestStreamErrorAfterSlotRelease: a SELECT that fails mid-stream is
// answered only after its query slot is free and its outcome counted, like
// every other reply. The slow-query log, which writes every failing
// statement's line before the slot is released, takes 50ms a line, so a
// second client that sends a statement the moment the error arrives would
// find the one slot still held (QueueDepth 0: rejected as overloaded) if
// the error frame went out first.
func TestStreamErrorAfterSlotRelease(t *testing.T) {
	d := newTestDB(t, 3000, 8)
	s := startServer(t, d, Config{QuerySlots: 1, QueueDepth: 0, SlowQueryLog: slowWriter{50 * time.Millisecond}})
	failing, next := dial(t, s), dial(t, s)
	for i := 1; i <= 3; i++ {
		rows, err := failing.Query("SELECT id, CAST(sepal_length * 1e12 AS INTEGER) AS x FROM iris")
		if err == nil {
			err = rows.Drain()
		}
		if err == nil || !strings.Contains(err.Error(), "out of range") {
			t.Fatalf("failing SELECT: %v", err)
		}
		if got := s.stats.Failed.Value(); got != int64(i) {
			t.Fatalf("error reached the client with %d failures counted, want %d", got, i)
		}
		if err := next.Exec("CREATE TABLE t" + strconv.Itoa(i) + " (id BIGINT)"); err != nil {
			t.Fatalf("statement sent on seeing the error: %v", err)
		}
	}
}

// TestQueueWaitReject exercises the bounded queue: with one slot busy, a
// queued statement is admitted if the slot frees in time and rejected
// after QueueWait otherwise.
func TestQueueWaitReject(t *testing.T) {
	d := newTestDB(t, 300000, 8)
	s := startServer(t, d, Config{QuerySlots: 1, QueueDepth: 1, QueueWait: 100 * time.Millisecond})

	slow := dial(t, s)
	done := make(chan struct{})
	go func() {
		defer close(done)
		rows, err := slow.QueryTimeout(slotHog, 10*time.Second)
		if err == nil {
			rows.Drain()
		}
	}()
	deadline := time.Now().Add(5 * time.Second)
	for s.stats.Running.Value() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("slow query never started running")
		}
		time.Sleep(time.Millisecond)
	}

	queued := dial(t, s)
	start := time.Now()
	err := queued.Exec("CREATE TABLE q (id BIGINT)")
	elapsed := time.Since(start)
	if err == nil || !client.IsOverloaded(err) {
		t.Fatalf("queued statement should time out with overload, got: %v", err)
	}
	if elapsed < 50*time.Millisecond {
		t.Fatalf("rejected after %v; queue wait not honored", elapsed)
	}
	// The slow query is reaped by the test-cleanup hard stop; don't wait
	// out its deadline here.
	_ = done
}

// TestSequentialStatementsPerSession checks one connection running many
// statements including error recovery in between.
func TestSequentialStatementsPerSession(t *testing.T) {
	d := newTestDB(t, 1000, 8)
	s := startServer(t, d, Config{})
	c := dial(t, s)

	if err := c.Exec("CREATE TABLE seq (id BIGINT, v DOUBLE)"); err != nil {
		t.Fatal(err)
	}
	if err := c.Exec("INSERT INTO seq VALUES (1, 0.5), (2, 1.5)"); err != nil {
		t.Fatal(err)
	}
	// A failing statement must not wedge the session.
	if err := c.Exec("INSERT INTO missing VALUES (1)"); err == nil {
		t.Fatal("expected error for missing table")
	}
	rows, err := c.Query("SELECT id, v FROM seq ORDER BY id")
	if err != nil {
		t.Fatal(err)
	}
	r1 := rows.Next()
	if r1 == nil || r1[0].(int64) != 1 || r1[1].(float64) != 0.5 {
		t.Fatalf("row 1 wrong: %v", r1)
	}
	// Abandon the cursor mid-stream; the next statement must auto-drain.
	txt, err := c.Status()
	if err != nil || !strings.Contains(txt, "sessions:") {
		t.Fatalf("status after abandoned cursor: %q, %v", txt, err)
	}
	rows2, err := c.Query("SELECT COUNT(*) AS n FROM seq")
	if err != nil {
		t.Fatal(err)
	}
	if row := rows2.Next(); row == nil || row[0].(int64) != 2 {
		t.Fatalf("count wrong: %v", row)
	}
	rows2.Drain()
}

// TestGracefulShutdown lets an in-flight statement finish, refuses new
// work, and returns once every session has drained.
func TestGracefulShutdown(t *testing.T) {
	d := newTestDB(t, 20000, 64)
	s := startServer(t, d, Config{QuerySlots: 4})
	c := dial(t, s)

	result := make(chan error, 1)
	go func() {
		rows, err := c.Query("SELECT COUNT(*) AS n, AVG(prediction_0) AS p FROM iris MODEL JOIN iris_model PREDICT (sepal_length, sepal_width, petal_length, petal_width)")
		if err != nil {
			result <- err
			return
		}
		for rows.Next() != nil {
		}
		result <- rows.Err()
	}()
	// Wait until the statement holds a slot, so the shutdown genuinely
	// overlaps an in-flight query.
	deadline := time.Now().Add(10 * time.Second)
	for s.stats.Running.Value() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("query never started running")
		}
		time.Sleep(time.Millisecond)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("graceful shutdown failed: %v", err)
	}
	if err := <-result; err != nil {
		t.Errorf("in-flight query did not complete cleanly: %v", err)
	}
	if _, err := client.Dial(s.Addr().String()); err == nil {
		// A connection may still be accepted by the OS backlog before the
		// close propagates, but a statement on it must be refused.
		c2, _ := client.Dial(s.Addr().String())
		if c2 != nil {
			if err := c2.Exec("CREATE TABLE late (id BIGINT)"); err == nil {
				t.Error("statement accepted after shutdown")
			}
			c2.Close()
		}
	}
}

// TestIdleTimeout closes sessions that go quiet.
func TestIdleTimeout(t *testing.T) {
	d := newTestDB(t, 1000, 8)
	s := startServer(t, d, Config{IdleTimeout: 50 * time.Millisecond})
	c := dial(t, s)
	if _, err := c.Status(); err != nil {
		t.Fatal(err)
	}
	time.Sleep(300 * time.Millisecond)
	if _, err := c.Status(); err == nil {
		t.Error("session should be closed after idle timeout")
	}
}
