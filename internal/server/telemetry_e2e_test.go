package server

import (
	"strings"
	"testing"
	"time"

	"indbml/internal/telemetry"
)

// End-to-end tests for the telemetry surface over the wire: SQL-declared
// alerts firing and resolving against real traffic, metrics history with
// computed rates and the METRICS prefix verb. The tests tick the engine's
// sampler themselves rather than wait for its one-second interval.

// TestAlertFiresAndResolvesOverWire is the single-node acceptance scenario:
// a client declares a rate alert over the wire, a traffic burst drives the
// completed-statement rate over the threshold, the alert walks
// pending→firing (visible in system.alerts, STATUS, and the
// vectordb_alerts_firing gauge), and quiescing the traffic resolves it.
// Both transitions reach the server's alert log as JSON lines.
func TestAlertFiresAndResolvesOverWire(t *testing.T) {
	d := newTestDB(t, 500, 4)
	var alertLog syncBuffer
	s := startServer(t, d, Config{
		QuerySlots: 4, QueueDepth: 16, IdleTimeout: time.Minute,
		AlertLog: &alertLog,
	})
	c := dial(t, s)
	tick := func() { d.Telemetry().Tick(time.Now()) }

	// Threshold sits far above the poll loop's own statement rate (~20/s at
	// 50ms polls) but far below the traffic burst's (hundreds/s).
	if err := c.Exec("CREATE ALERT busy ON rate(vectordb_queries_completed_total) > 40 FOR 50ms"); err != nil {
		t.Fatalf("CREATE ALERT: %v", err)
	}

	stop := make(chan struct{})
	trafficDone := make(chan struct{})
	go func() {
		defer close(trafficDone)
		tc := dial(t, s)
		for {
			select {
			case <-stop:
				return
			default:
			}
			rows, err := tc.Query("SELECT COUNT(*) AS n FROM iris")
			if err != nil {
				return
			}
			rows.Drain()
		}
	}()

	alertRow := func() (state string, value float64, firedCount, lastResolved int64) {
		t.Helper()
		rows, err := c.Query("SELECT state, value, fired_count, last_resolved_ns FROM system.alerts WHERE name = 'busy'")
		if err != nil {
			t.Fatal(err)
		}
		r := rows.Next()
		if r == nil {
			t.Fatal("alert 'busy' missing from system.alerts")
		}
		rows.Drain()
		state = r[0].(string)
		if r[1] != nil {
			value = r[1].(float64)
		}
		return state, value, r[2].(int64), r[3].(int64)
	}

	deadline := time.Now().Add(10 * time.Second)
	for {
		tick()
		state, value, _, _ := alertRow()
		if state == telemetry.StateFiring {
			if value <= 40 {
				t.Errorf("firing alert reports value %v, want > 40", value)
			}
			break
		}
		if time.Now().After(deadline) {
			close(stop)
			t.Fatalf("alert never fired under traffic (state=%q value=%v)", state, value)
		}
		time.Sleep(50 * time.Millisecond)
	}

	// While firing: STATUS carries the alerts line and the gauge reads 1.
	status, err := c.Status()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(status, "alerts:") || !strings.Contains(status, "firing=1 [busy]") {
		t.Errorf("STATUS missing firing alert summary:\n%s", status)
	}
	page, err := c.MetricsFiltered("vectordb_alerts")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(page, "vectordb_alerts_firing 1") {
		t.Errorf("filtered metrics page = %q, want vectordb_alerts_firing 1", page)
	}
	if strings.Contains(page, "vectordb_statement_seconds") {
		t.Errorf("METRICS prefix filter leaked other collectors:\n%s", page)
	}

	close(stop)
	<-trafficDone

	// Quiesced: the only statements now are the 200ms polls (~5/s < 40), so
	// the rate falls under threshold and the alert must resolve.
	deadline = time.Now().Add(10 * time.Second)
	for {
		tick()
		state, _, firedCount, lastResolved := alertRow()
		if state == telemetry.StateInactive {
			if firedCount < 1 {
				t.Errorf("resolved alert fired_count = %d, want >= 1", firedCount)
			}
			if lastResolved == 0 {
				t.Error("resolved alert has last_resolved_ns = 0")
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("alert never resolved after traffic stopped (state=%q)", state)
		}
		time.Sleep(200 * time.Millisecond)
	}
	if log := alertLog.String(); !strings.Contains(log, `"state":"firing"`) || !strings.Contains(log, `"state":"resolved"`) {
		t.Errorf("alert log missing a transition:\n%s", log)
	}

	if err := c.Exec("DROP ALERT busy"); err != nil {
		t.Fatalf("DROP ALERT: %v", err)
	}
	rows, err := c.Query("SELECT name FROM system.alerts")
	if err != nil {
		t.Fatal(err)
	}
	if rows.Next() != nil {
		t.Error("system.alerts non-empty after DROP ALERT")
	}
	rows.Drain()
}

// TestMetricsHistoryOverWire drives a scripted workload and checks that
// system.metrics_history and system.latency_history serve sampled series
// with computed rates over the wire.
func TestMetricsHistoryOverWire(t *testing.T) {
	d := newTestDB(t, 500, 4)
	s := startServer(t, d, Config{QuerySlots: 4, QueueDepth: 16, IdleTimeout: time.Minute})
	c := dial(t, s)

	d.Telemetry().Tick(time.Now())
	for i := 0; i < 30; i++ {
		rows, err := c.Query("SELECT COUNT(*) AS n FROM iris")
		if err != nil {
			t.Fatal(err)
		}
		rows.Drain()
		if i%10 == 9 {
			d.Telemetry().Tick(time.Now())
		}
	}

	rows, err := c.Query("SELECT ts, res, value, rate FROM system.metrics_history WHERE metric = 'vectordb_queries_completed_total' AND res = 'fine' ORDER BY ts")
	if err != nil {
		t.Fatal(err)
	}
	var n int
	var lastTS int64
	var sawPositiveRate bool
	for r := rows.Next(); r != nil; r = rows.Next() {
		n++
		ts := r[0].(int64)
		if ts < lastTS {
			t.Errorf("history out of order: %d after %d", ts, lastTS)
		}
		lastTS = ts
		if r[3] != nil && r[3].(float64) > 0 {
			sawPositiveRate = true
		}
	}
	if n < 2 {
		t.Fatalf("metrics_history has %d samples, want >= 2", n)
	}
	if !sawPositiveRate {
		t.Error("no positive completed-statement rate in history despite traffic")
	}

	lrows, err := c.Query("SELECT metric, count, p50_ms, p99_ms FROM system.latency_history WHERE metric = 'vectordb_statement_seconds'")
	if err != nil {
		t.Fatal(err)
	}
	var sawActiveInterval bool
	for r := lrows.Next(); r != nil; r = lrows.Next() {
		if r[1].(int64) <= 0 {
			continue
		}
		sawActiveInterval = true
		p50, p99 := r[2].(float64), r[3].(float64)
		if p50 <= 0 || p99 < p50 {
			t.Errorf("interval quantiles p50=%v p99=%v, want 0 < p50 <= p99", p50, p99)
		}
	}
	if !sawActiveInterval {
		t.Error("latency_history has no interval with observations despite traffic")
	}
}
