package server

// End-to-end tests for the live workload control plane: system.sessions,
// system.active_queries, KILL over the wire, and the fingerprinted
// statement statistics. Run under -race these also prove the live registry
// and session counters race-clean against concurrent traffic.

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"indbml/internal/engine/sql"
	"indbml/internal/server/client"
)

const irisPredict = "MODEL JOIN iris_model PREDICT (sepal_length, sepal_width, petal_length, petal_width)"

// TestKillRunningQuery: a long MODEL JOIN on one connection is observed in
// system.active_queries from a second connection — with monotonically
// growing progress — then killed by query ID. The victim unwinds promptly
// with a cancellation error; the killer's connection stays usable; the
// victim's flight record lands in system.queries under the same ID.
func TestKillRunningQuery(t *testing.T) {
	d := newTestDB(t, 200000, 96) // wide hidden layers: several seconds of inference
	s := startServer(t, d, Config{QuerySlots: 4, QueueDepth: 8, IdleTimeout: time.Minute})

	victim := dial(t, s)
	killer := dial(t, s)

	victimErr := make(chan error, 1)
	go func() {
		rows, err := victim.Query("SELECT COUNT(*) AS n, AVG(prediction_0) AS p FROM iris " + irisPredict)
		if err != nil {
			victimErr <- err
			return
		}
		for rows.Next() != nil {
		}
		victimErr <- rows.Err()
	}()

	// Watch the victim appear and make progress. Progress is sampled from
	// the scan spans' atomic counters, so repeated polls must never see
	// rows_scanned shrink.
	var id uint64
	var lastRows int64 = -1
	deadline := time.Now().Add(15 * time.Second)
	for id == 0 || lastRows <= 0 {
		if time.Now().After(deadline) {
			t.Fatalf("victim never showed progress in system.active_queries (id=%d rows=%d)", id, lastRows)
		}
		rows, err := killer.Query("SELECT query_id, state, rows_scanned, sql FROM system.active_queries")
		if err != nil {
			t.Fatal(err)
		}
		for r := rows.Next(); r != nil; r = rows.Next() {
			if !strings.Contains(r[3].(string), "MODEL JOIN") {
				continue
			}
			qid := uint64(r[0].(int64))
			if id != 0 && qid != id {
				t.Fatalf("victim query ID changed: %d -> %d", id, qid)
			}
			id = qid
			if got := r[1].(string); got != "running" && got != "queued" {
				t.Fatalf("victim state = %q", got)
			}
			scanned := r[2].(int64)
			if scanned < lastRows {
				t.Fatalf("rows_scanned went backwards: %d -> %d", lastRows, scanned)
			}
			lastRows = scanned
		}
		if err := rows.Err(); err != nil {
			t.Fatal(err)
		}
		time.Sleep(10 * time.Millisecond)
	}

	start := time.Now()
	if err := killer.Kill(id); err != nil {
		t.Fatalf("KILL %d: %v", id, err)
	}
	select {
	case err := <-victimErr:
		if !client.IsCanceled(err) {
			t.Fatalf("victim finished with %v, want cancellation", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("victim did not unwind after KILL")
	}
	if took := time.Since(start); took > 5*time.Second {
		t.Errorf("victim took %s to unwind, want prompt cancellation", took)
	}

	// Killing it again must error: the statement is no longer live.
	if err := killer.Kill(id); err == nil {
		t.Error("second KILL of a finished query did not error")
	}

	// The killer's connection survived, and the victim's record is in
	// system.queries under the ID the control plane showed.
	rows, err := killer.Query(fmt.Sprintf(
		"SELECT error FROM system.queries WHERE query_id = %d", id))
	if err != nil {
		t.Fatal(err)
	}
	r := rows.Next()
	if r == nil {
		t.Fatalf("killed query %d missing from system.queries", id)
	}
	if errCol := r[0].(string); errCol == "" {
		t.Error("killed query recorded without an error")
	}
	rows.Drain()
}

// TestKillQueuedQuery: on a one-slot server, a statement parked in the
// admission queue is already registered — visible and killable before it
// ever reaches the engine.
func TestKillQueuedQuery(t *testing.T) {
	d := newTestDB(t, 200000, 8)
	s := startServer(t, d, Config{QuerySlots: 1, QueueDepth: 8, IdleTimeout: time.Minute})

	hog := dial(t, s)
	queued := dial(t, s)
	killer := dial(t, s)

	hogErr := make(chan error, 1)
	go func() {
		rows, err := hog.Query(slotHog)
		if err != nil {
			hogErr <- err
			return
		}
		for rows.Next() != nil {
		}
		hogErr <- rows.Err()
	}()

	// Wait for the hog to hold the only slot, then park a second statement
	// in the admission queue.
	fr := s.db.FlightRecorder()
	waitFor(t, 10*time.Second, func() bool {
		for _, q := range fr.Live() {
			if q.State() == "running" {
				return true
			}
		}
		return false
	})
	queuedErr := make(chan error, 1)
	go func() {
		rows, err := queued.Query("SELECT COUNT(*) AS n FROM iris WHERE id < 50")
		if err != nil {
			queuedErr <- err
			return
		}
		rows.Drain()
		queuedErr <- rows.Err()
	}()

	// Find the queued entry via the registry (a SELECT over
	// system.active_queries would itself queue behind the hog) and kill it
	// over the wire — KILL bypasses admission, so it works with zero free
	// slots.
	var queuedID uint64
	waitFor(t, 10*time.Second, func() bool {
		for _, q := range fr.Live() {
			if q.State() == "queued" {
				queuedID = q.ID()
				return true
			}
		}
		return false
	})
	if err := killer.Kill(queuedID); err != nil {
		t.Fatalf("KILL queued %d: %v", queuedID, err)
	}
	select {
	case err := <-queuedErr:
		if !client.IsCanceled(err) {
			t.Fatalf("queued statement finished with %v, want cancellation", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("queued statement did not unwind after KILL")
	}

	// The hog was untouched; kill it too so the test ends promptly.
	for _, q := range fr.Live() {
		q.Kill()
	}
	<-hogErr
}

// TestStatementStatsOverWire: two literal variants of one statement shape
// fold onto a single fingerprint row; the MODEL JOIN shape carries its
// approach and device tags.
func TestStatementStatsOverWire(t *testing.T) {
	d := newTestDB(t, 500, 4)
	s := startServer(t, d, Config{QuerySlots: 4, QueueDepth: 8, IdleTimeout: time.Minute})
	c := dial(t, s)

	for _, q := range []string{
		"SELECT COUNT(*) AS n FROM iris WHERE sepal_length > 5.0",
		"SELECT COUNT(*) AS n FROM iris WHERE sepal_length > 6.5",
		"SELECT COUNT(*) AS n FROM iris " + irisPredict,
	} {
		rows, err := c.Query(q)
		if err != nil {
			t.Fatalf("%q: %v", q, err)
		}
		if err := rows.Drain(); err != nil {
			t.Fatalf("%q: %v", q, err)
		}
	}

	rows, err := c.Query("SELECT fingerprint, approach, device, calls, rows_out, sql FROM system.statement_stats")
	if err != nil {
		t.Fatal(err)
	}
	var foldedCalls int64
	var sawModelJoin bool
	for r := rows.Next(); r != nil; r = rows.Next() {
		fp, approach, device := r[0].(string), r[1].(string), r[2].(string)
		calls, norm := r[3].(int64), r[5].(string)
		if len(fp) != 16 {
			t.Errorf("fingerprint %q not 16 hex digits", fp)
		}
		if strings.Contains(norm, "sepal_length > ?") {
			foldedCalls = calls
		}
		if approach == "modeljoin" {
			sawModelJoin = true
			if device == "" {
				t.Error("modeljoin shape has no device tag")
			}
		}
	}
	if err := rows.Err(); err != nil {
		t.Fatal(err)
	}
	if foldedCalls != 2 {
		t.Errorf("folded shape calls = %d, want 2", foldedCalls)
	}
	if !sawModelJoin {
		t.Error("no modeljoin row in system.statement_stats")
	}
}

// TestSessionsTable: every live connection appears in system.sessions; the
// session running the query reports itself active with a current query ID,
// and its statement counter grows.
func TestSessionsTable(t *testing.T) {
	d := newTestDB(t, 500, 4)
	s := startServer(t, d, Config{QuerySlots: 4, QueueDepth: 8, IdleTimeout: time.Minute})

	idle := dial(t, s)
	probe := dial(t, s)
	// Give both sessions some traffic so counters are non-trivial.
	for _, c := range []*client.Client{idle, probe} {
		rows, err := c.Query("SELECT COUNT(*) AS n FROM iris")
		if err != nil {
			t.Fatal(err)
		}
		rows.Drain()
	}

	rows, err := probe.Query("SELECT session_id, remote_addr, state, statements, bytes_out, current_query_id FROM system.sessions ORDER BY session_id")
	if err != nil {
		t.Fatal(err)
	}
	var n, activeRows int
	for r := rows.Next(); r != nil; r = rows.Next() {
		n++
		if r[1].(string) == "" {
			t.Error("session with empty remote_addr")
		}
		if r[3].(int64) < 1 {
			t.Errorf("session %d: statements = %d, want >= 1", r[0].(int64), r[3].(int64))
		}
		if r[2].(string) == "active" {
			activeRows++
			// The active session is the probe itself, mid-statement, and its
			// current_query_id points at this very SELECT.
			if r[5].(int64) == 0 {
				t.Error("active session has no current_query_id")
			}
			if r[4].(int64) <= 0 {
				t.Error("active session reports zero bytes_out after a drained query")
			}
		}
	}
	if err := rows.Err(); err != nil {
		t.Fatal(err)
	}
	if n < 2 {
		t.Fatalf("system.sessions rows = %d, want >= 2", n)
	}
	if activeRows != 1 {
		t.Errorf("active sessions = %d, want exactly the probing one", activeRows)
	}
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, d time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached in time")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestStatementsDispatchOnTheParse: the server reads a statement once, with
// the parser, and that parse decides how it is served — however the
// statement is spaced, cased or commented. A SELECT answers with rows,
// EXPLAIN [ANALYZE] with plan text, and a lower-case KILL with "ok" without
// waiting for a query slot. A served EXPLAIN ANALYZE is recorded as the
// statement received, and one that does not parse as kind exec with its
// parse error.
func TestStatementsDispatchOnTheParse(t *testing.T) {
	d := newTestDB(t, 200000, 8)
	s := startServer(t, d, Config{QuerySlots: 1, IdleTimeout: time.Minute})
	c := dial(t, s)
	fr := d.FlightRecorder()

	rows, err := c.Query("-- note\nSELECT id FROM iris WHERE id < 3")
	if err != nil {
		t.Fatalf("commented SELECT: %v", err)
	}
	n := 0
	for rows.Next() != nil {
		n++
	}
	if rows.Err() != nil || n != 3 {
		t.Fatalf("commented SELECT returned %d rows, %v; want 3", n, rows.Err())
	}

	const q = "SELECT COUNT(*) AS n FROM iris WHERE id < 10"
	for _, text := range []string{"EXPLAIN  ANALYZE " + q, "explain\nanalyze " + strings.ToLower(q)} {
		out, err := c.Command(text)
		if err != nil {
			t.Fatalf("%q: %v", text, err)
		}
		if !strings.Contains(out, "Total: ") || !strings.Contains(out, "rows=") {
			t.Errorf("%q did not answer with EXPLAIN ANALYZE:\n%s", text, out)
		}
		sums := fr.Snapshot()
		last := sums[len(sums)-1]
		if want := sql.ParseNormalized(text, false); last.SQL != text || last.Fingerprint != want.Fingerprint || last.Kind != "select" {
			t.Errorf("%q recorded as %q fp %x kind %q; want the statement received, fp %x, kind select",
				text, last.SQL, last.Fingerprint, last.Kind, want.Fingerprint)
		}
	}
	out, err := c.Command("-- c\nEXPLAIN " + q)
	if err != nil {
		t.Fatalf("commented EXPLAIN: %v", err)
	}
	if !strings.Contains(out, "Scan iris") || strings.Contains(out, "Total: ") {
		t.Errorf("commented EXPLAIN did not answer with a plan:\n%s", out)
	}

	const bad = "SELEC id FROM iris"
	if err := c.Exec(bad); err == nil {
		t.Fatalf("%q succeeded", bad)
	}
	sums := fr.Snapshot()
	last := sums[len(sums)-1]
	if want := sql.ParseNormalized(bad, false); last.SQL != bad || last.Kind != "exec" || last.Error != want.Err.Error() {
		t.Errorf("unparsable statement recorded as %q kind %q error %q; want kind exec, error %q", last.SQL, last.Kind, last.Error, want.Err)
	}

	// Hold the only slot; a lower-case KILL still answers at once.
	hog := dial(t, s)
	hogErr := make(chan error, 1)
	go func() {
		rows, err := hog.Query(slotHog)
		if err == nil {
			rows.Drain()
			err = rows.Err()
		}
		hogErr <- err
	}()
	var hogID uint64
	waitFor(t, 10*time.Second, func() bool {
		select {
		case err := <-hogErr:
			t.Fatalf("slot hog ended early: %v", err)
		default:
		}
		for _, q := range fr.Live() {
			if q.State() == "running" {
				hogID = q.ID()
				return true
			}
		}
		return false
	})
	if out, err := c.Command(fmt.Sprintf("kill %d", hogID)); err != nil || out != "ok" {
		t.Fatalf("kill %d with every slot held = %q, %v; want ok", hogID, out, err)
	}
	select {
	case err := <-hogErr:
		if !client.IsCanceled(err) {
			t.Fatalf("killed statement finished with %v, want cancellation", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("killed statement did not unwind")
	}
}
