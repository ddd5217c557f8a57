package server

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"
)

// syncBuffer is a mutex-guarded bytes.Buffer: the slow log writes from
// session goroutines while the test reads from its own.
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

// TestMetricsVerb checks the wire-level METRICS command: the page must be
// text exposition format, carry the statement-latency histogram absorbed
// from the old ad-hoc stats, and reflect completed work.
func TestMetricsVerb(t *testing.T) {
	d := newTestDB(t, 1000, 8)
	s := startServer(t, d, Config{QuerySlots: 4})
	c := dial(t, s)

	rows, err := c.Query("SELECT COUNT(*) AS n FROM iris")
	if err != nil {
		t.Fatal(err)
	}
	rows.Drain()

	page, err := c.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"# TYPE vectordb_statement_seconds histogram",
		"vectordb_statement_seconds_bucket{le=\"+Inf\"}",
		"vectordb_statement_seconds_count",
		"# TYPE vectordb_queued_wait_seconds histogram",
		"# TYPE vectordb_queries_completed_total gauge",
		"vectordb_rows_served_total",
		"vectordb_model_cache_entries",
		"vectordb_query_slots 4",
	} {
		if !strings.Contains(page, want) {
			t.Errorf("METRICS page missing %q:\n%s", want, page)
		}
	}

	// STATUS renders the same histograms as duration-bucketed lines.
	status, err := c.Status()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(status, "latency:") || !strings.Contains(status, "queued_wait:") {
		t.Errorf("STATUS missing histogram lines:\n%s", status)
	}
}

// TestExplainAnalyzeOverWire runs EXPLAIN ANALYZE through the framed
// protocol: the reply is the annotated plan, including per-operator rows
// and the model-cache verdict for a MODEL JOIN.
func TestExplainAnalyzeOverWire(t *testing.T) {
	d := newTestDB(t, 1000, 8)
	s := startServer(t, d, Config{QuerySlots: 4})
	c := dial(t, s)

	out, err := c.Command("EXPLAIN ANALYZE SELECT COUNT(*) AS n FROM iris")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"Scan iris", "rows=", "Total:"} {
		if !strings.Contains(out, want) {
			t.Errorf("EXPLAIN ANALYZE output missing %q:\n%s", want, out)
		}
	}

	out, err = c.Command("EXPLAIN ANALYZE SELECT COUNT(*) AS n, AVG(prediction_0) AS p FROM iris MODEL JOIN iris_model PREDICT (sepal_length, sepal_width, petal_length, petal_width)")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"ModelJoin", "cache=", "infer=", "rows=1000"} {
		if !strings.Contains(out, want) {
			t.Errorf("EXPLAIN ANALYZE of MODEL JOIN missing %q:\n%s", want, out)
		}
	}

	// Plain EXPLAIN must still return the unannotated plan.
	out, err = c.Command("EXPLAIN SELECT COUNT(*) AS n FROM iris")
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(out, "rows=") || strings.Contains(out, "Total:") {
		t.Errorf("plain EXPLAIN carries runtime annotations:\n%s", out)
	}
}

// TestSlowQueryLog drives the structured log: with a zero threshold every
// SELECT is logged as a JSON line whose embedded trace carries the plan
// tree; with a high threshold fast statements stay out of the log.
func TestSlowQueryLog(t *testing.T) {
	d := newTestDB(t, 1000, 8)
	var buf syncBuffer
	s := startServer(t, d, Config{QuerySlots: 4, SlowQueryLog: &buf, SlowQueryThreshold: 0})
	c := dial(t, s)

	rows, err := c.Query("SELECT id, sepal_length FROM iris WHERE id < 100 ORDER BY id")
	if err != nil {
		t.Fatal(err)
	}
	if err := rows.Drain(); err != nil {
		t.Fatal(err)
	}
	// The log line is written before the final result frame is flushed, so
	// it is visible once the cursor has drained.
	line := strings.TrimSpace(buf.String())
	if line == "" {
		t.Fatal("no slow-query log line written")
	}
	var entry struct {
		TS         string  `json:"ts"`
		Verdict    string  `json:"verdict"`
		DurationMS float64 `json:"duration_ms"`
		Rows       int64   `json:"rows"`
		Trace      struct {
			SQL     string          `json:"sql"`
			TotalNS int64           `json:"total_ns"`
			Plan    json.RawMessage `json:"plan"`
		} `json:"trace"`
	}
	first := strings.SplitN(line, "\n", 2)[0]
	if err := json.Unmarshal([]byte(first), &entry); err != nil {
		t.Fatalf("slow log line is not JSON: %v\n%s", err, first)
	}
	if entry.Verdict != "slow" {
		t.Errorf("verdict = %q, want slow", entry.Verdict)
	}
	if entry.Rows != 100 {
		t.Errorf("rows = %d, want 100", entry.Rows)
	}
	if entry.Trace.TotalNS <= 0 || entry.DurationMS <= 0 {
		t.Errorf("missing duration: total_ns=%d duration_ms=%v", entry.Trace.TotalNS, entry.DurationMS)
	}
	if !strings.Contains(string(entry.Trace.Plan), "Scan iris") {
		t.Errorf("embedded trace has no plan: %s", entry.Trace.Plan)
	}
	if s.stats.SlowLogged.Value() == 0 {
		t.Error("slow-logged counter not incremented")
	}

	// A high threshold keeps fast statements out of the log. A database is
	// served by one server, so the second server gets its own.
	var quiet syncBuffer
	s2 := startServer(t, newTestDB(t, 1000, 8), Config{QuerySlots: 4, SlowQueryLog: &quiet, SlowQueryThreshold: time.Hour})
	c2 := dial(t, s2)
	rows2, err := c2.Query("SELECT COUNT(*) AS n FROM iris")
	if err != nil {
		t.Fatal(err)
	}
	rows2.Drain()
	if got := quiet.String(); got != "" {
		t.Errorf("fast statement logged despite 1h threshold: %s", got)
	}
}
