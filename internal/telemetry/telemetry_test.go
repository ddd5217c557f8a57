package telemetry

import (
	"bytes"
	"math"
	"strings"
	"sync"
	"testing"
	"time"

	"indbml/internal/engine/sql"
	"indbml/internal/engine/storage"
	"indbml/internal/engine/types"
	"indbml/internal/metrics"
)

// newTestSampler builds a sampler with tiny rings, never Started — every
// test drives Tick directly with a scripted clock.
func newTestSampler(t *testing.T, reg *metrics.Registry, alertLog *bytes.Buffer) *Sampler {
	t.Helper()
	s := New(reg)
	s.fine, s.coarse = newRing(16), newRing(8)
	if alertLog != nil {
		s.alerts.setLog(alertLog)
	}
	return s
}

// rowsFromTable materializes a virtual table into datum rows.
func rowsFromTable(t *testing.T, vt storage.VirtualTable) [][]types.Datum {
	t.Helper()
	batches, err := vt.Snapshot()
	if err != nil {
		t.Fatalf("%s snapshot: %v", vt.Name(), err)
	}
	var rows [][]types.Datum
	for _, b := range batches {
		for i := 0; i < b.Len(); i++ {
			rows = append(rows, b.Row(i))
		}
	}
	return rows
}

func mustCreateAlert(t *testing.T, s *Sampler, ddl string) {
	t.Helper()
	stmt, err := sql.Parse(ddl)
	if err != nil {
		t.Fatalf("parse %q: %v", ddl, err)
	}
	ca, ok := stmt.(*sql.CreateAlertStmt)
	if !ok {
		t.Fatalf("parse %q: got %T, want *sql.CreateAlertStmt", ddl, stmt)
	}
	if err := s.Alerts().CreateAlert(ca); err != nil {
		t.Fatalf("CreateAlert %q: %v", ddl, err)
	}
}

// TestHistoryRatesAndQuantiles scripts a known workload across two ticks
// and asserts the computed counter rate and the interval p50/p99/avg from
// histogram-bucket deltas.
func TestHistoryRatesAndQuantiles(t *testing.T) {
	reg := metrics.NewRegistry()
	c := reg.NewCounter("reqs_total", "requests")
	h := reg.NewHistogram("lat_seconds", "latency", metrics.DefaultLatencyBounds)
	s := newTestSampler(t, reg, nil)

	t0 := time.Unix(1000, 0)
	s.Tick(t0)
	c.Add(10)
	for i := 0; i < 20; i++ {
		h.Observe(0.003) // bucket le=0.005
	}
	for i := 0; i < 79; i++ {
		h.Observe(0.03) // bucket le=0.05
	}
	h.Observe(0.4) // bucket le=0.5
	s.Tick(t0.Add(2 * time.Second))

	// Counter rows: first sample's rate is NULL, second is 10/2s = 5/s.
	var rates []types.Datum
	for _, row := range rowsFromTable(t, HistoryTable(s)) {
		if row[2].S == "reqs_total" && row[1].S == "fine" {
			rates = append(rates, row[6])
		}
	}
	if len(rates) != 2 {
		t.Fatalf("reqs_total fine rows = %d, want 2", len(rates))
	}
	if !rates[0].Null {
		t.Errorf("first sample rate = %v, want NULL", rates[0])
	}
	if rates[1].Null || rates[1].F64 != 5 {
		t.Errorf("second sample rate = %+v, want 5", rates[1])
	}

	// Latency row: 100 interval observations at 50/s; p50 interpolates
	// inside the le=0.05 bucket, p99 lands exactly on its upper bound.
	var lat [][]types.Datum
	for _, row := range rowsFromTable(t, LatencyTable(s)) {
		if row[2].S == "lat_seconds" && row[1].S == "fine" {
			lat = append(lat, row)
		}
	}
	if len(lat) != 1 {
		t.Fatalf("lat_seconds fine rows = %d, want 1", len(lat))
	}
	row := lat[0]
	if got := row[3].I64; got != 100 {
		t.Errorf("count = %d, want 100", got)
	}
	if got := row[4].F64; got != 50 {
		t.Errorf("rate = %v, want 50", got)
	}
	// rank 50 lands in the le=0.05 bucket (cumulative 99); the bucket's
	// lower edge is the previous bound, 0.01.
	wantP50 := (0.01 + 0.04*((50.0-20.0)/79.0)) * 1000
	if got := row[5].F64; math.Abs(got-wantP50) > 1e-9 {
		t.Errorf("p50_ms = %v, want %v", got, wantP50)
	}
	if got := row[6].F64; math.Abs(got-50) > 1e-9 {
		t.Errorf("p99_ms = %v, want 50", got)
	}
	wantAvg := (20*0.003 + 79*0.03 + 0.4) / 100 * 1000
	if got := row[7].F64; math.Abs(got-wantAvg) > 1e-9 {
		t.Errorf("avg_ms = %v, want %v", got, wantAvg)
	}
}

// TestCoarseRollupAndRingWrap: the coarse ring only takes one sample per
// CoarseEvery, and the fine ring drops the oldest samples once full.
func TestCoarseRollupAndRingWrap(t *testing.T) {
	reg := metrics.NewRegistry()
	reg.NewCounter("x_total", "x")
	s := New(reg)
	s.fine, s.coarse = newRing(4), newRing(8)

	t0 := time.Unix(2000, 0)
	for i := 0; i < 130; i++ {
		s.Tick(t0.Add(time.Duration(i) * time.Second))
	}
	fine, coarse := make(map[int64]bool), make(map[int64]bool)
	for _, row := range rowsFromTable(t, HistoryTable(s)) {
		if row[2].S != "x_total" {
			continue
		}
		switch row[1].S {
		case "fine":
			fine[row[0].I64] = true
		case "coarse":
			coarse[row[0].I64] = true
		}
	}
	if len(fine) != 4 {
		t.Errorf("fine samples retained = %d, want 4 (ring capacity)", len(fine))
	}
	// 130 ticks at 1s cross the 60s rollup boundary at t0, t0+60, t0+120.
	if len(coarse) != 3 {
		t.Errorf("coarse samples = %d, want 3", len(coarse))
	}
	oldestWanted := t0.Add(126 * time.Second).UnixNano()
	for ts := range fine {
		if ts < oldestWanted {
			t.Errorf("fine ring retained ts %d older than %d", ts, oldestWanted)
		}
	}
}

// TestAlertStateMachine walks pending → firing → resolved with a scripted
// clock and checks system.alerts, the firing gauge, and the JSON log.
func TestAlertStateMachine(t *testing.T) {
	reg := metrics.NewRegistry()
	depth := reg.NewGauge("queue_depth", "depth")
	var logBuf bytes.Buffer
	s := newTestSampler(t, reg, &logBuf)
	mustCreateAlert(t, s, "CREATE ALERT hot ON queue_depth > 5 FOR 2s")

	state := func() string {
		rows := rowsFromTable(t, AlertsTable(s))
		if len(rows) != 1 {
			t.Fatalf("system.alerts rows = %d, want 1", len(rows))
		}
		return rows[0][2].S
	}

	t0 := time.Unix(3000, 0)
	depth.Set(10)
	s.Tick(t0)
	if got := state(); got != StatePending {
		t.Fatalf("after first true tick: state = %q, want pending", got)
	}
	s.Tick(t0.Add(1 * time.Second))
	if got := state(); got != StatePending {
		t.Fatalf("at 1s held: state = %q, want pending (FOR 2s)", got)
	}
	s.Tick(t0.Add(2 * time.Second))
	if got := state(); got != StateFiring {
		t.Fatalf("at 2s held: state = %q, want firing", got)
	}
	if got := s.Alerts().FiringCount(); got != 1 {
		t.Errorf("FiringCount = %d, want 1", got)
	}
	if !strings.Contains(s.StatusLine(), "firing=1 [hot]") {
		t.Errorf("StatusLine = %q, want firing=1 [hot]", s.StatusLine())
	}

	depth.Set(0)
	s.Tick(t0.Add(3 * time.Second))
	if got := state(); got != StateInactive {
		t.Fatalf("after condition cleared: state = %q, want inactive", got)
	}
	if got := s.Alerts().FiringCount(); got != 0 {
		t.Errorf("FiringCount after resolve = %d, want 0", got)
	}

	log := logBuf.String()
	if !strings.Contains(log, `"state":"firing"`) || !strings.Contains(log, `"state":"resolved"`) {
		t.Errorf("alert log missing transitions:\n%s", log)
	}
	// encoding/json escapes ">" as > inside strings.
	// encoding/json escapes ">" to > inside strings, so match around it.
	if !strings.Contains(log, `"alert":"hot"`) || !strings.Contains(log, `5 FOR 2s"`) || !strings.Contains(log, `"expr":"queue_depth`) {
		t.Errorf("alert log missing rule identity:\n%s", log)
	}

	// A pending rule whose condition clears before FOR elapses never logs.
	depth.Set(10)
	s.Tick(t0.Add(4 * time.Second))
	depth.Set(0)
	s.Tick(t0.Add(5 * time.Second))
	if n := strings.Count(logBuf.String(), `"state":"firing"`); n != 1 {
		t.Errorf("firing transitions logged = %d, want 1 (pending blip must not fire)", n)
	}
}

// TestRateAndQuantileAlerts: rate() fires on counter slope; p99() fires on
// interval latency; both resolve when traffic quiets.
func TestRateAndQuantileAlerts(t *testing.T) {
	reg := metrics.NewRegistry()
	c := reg.NewCounter("reqs_total", "requests")
	h := reg.NewHistogram("lat_seconds", "latency", metrics.DefaultLatencyBounds)
	s := newTestSampler(t, reg, nil)
	mustCreateAlert(t, s, "CREATE ALERT qps ON rate(reqs_total) > 50")
	mustCreateAlert(t, s, "CREATE ALERT slow ON p99(lat_seconds) >= 0.4 FOR 0s")

	states := func() map[string]string {
		m := make(map[string]string)
		for _, row := range rowsFromTable(t, AlertsTable(s)) {
			m[row[0].S] = row[2].S
		}
		return m
	}

	t0 := time.Unix(4000, 0)
	s.Tick(t0) // no prev sample: rate/p99 have no data, conditions false
	if st := states(); st["qps"] != StateInactive || st["slow"] != StateInactive {
		t.Fatalf("first tick states = %v, want both inactive", st)
	}

	c.Add(200) // 200/s over the next 1s interval
	for i := 0; i < 100; i++ {
		h.Observe(0.9) // p99 lands in the le=1 bucket, well above 0.4s
	}
	s.Tick(t0.Add(1 * time.Second))
	if st := states(); st["qps"] != StateFiring || st["slow"] != StateFiring {
		t.Fatalf("hot tick states = %v, want both firing (FOR 0)", st)
	}

	s.Tick(t0.Add(2 * time.Second)) // no new traffic: rate 0, empty interval
	if st := states(); st["qps"] != StateInactive || st["slow"] != StateInactive {
		t.Fatalf("quiet tick states = %v, want both inactive", st)
	}
}

// TestAlertDDL: duplicate CREATE errors, DROP removes (and decrements the
// firing gauge when the dropped rule was firing), unknown DROP errors.
func TestAlertDDL(t *testing.T) {
	reg := metrics.NewRegistry()
	g := reg.NewGauge("g", "g")
	s := newTestSampler(t, reg, nil)
	mustCreateAlert(t, s, "CREATE ALERT a ON g > 0")
	stmt, _ := sql.Parse("CREATE ALERT a ON g > 1")
	if err := s.Alerts().CreateAlert(stmt.(*sql.CreateAlertStmt)); err == nil {
		t.Error("duplicate CREATE ALERT: want error")
	}
	g.Set(5)
	s.Tick(time.Unix(5000, 0))
	if got := s.Alerts().FiringCount(); got != 1 {
		t.Fatalf("FiringCount = %d, want 1", got)
	}
	if err := s.Alerts().DropAlert("a"); err != nil {
		t.Fatalf("DropAlert: %v", err)
	}
	if got := s.Alerts().FiringCount(); got != 0 {
		t.Errorf("FiringCount after dropping firing rule = %d, want 0", got)
	}
	if err := s.Alerts().DropAlert("nope"); err == nil {
		t.Error("DROP ALERT nope: want error")
	}
}

// TestTickAlongsideSampler: callers may Tick while the sampler goroutine
// ticks (run under -race).
func TestTickAlongsideSampler(t *testing.T) {
	reg := metrics.NewRegistry()
	reg.NewCounter("x_total", "x").Add(1)
	s := New(reg)
	s.fine, s.coarse = newRing(8), newRing(8)
	s.interval, s.coarseEvery = time.Millisecond, time.Millisecond
	mustCreateAlert(t, s, "CREATE ALERT r ON rate(x_total) > 0")
	s.Start(nil)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				s.Tick(time.Now())
			}
		}()
	}
	wg.Wait()
	s.Stop()
	if n := len(s.fine.snapshot()); n != 8 {
		t.Errorf("fine ring holds %d samples, want it full (8)", n)
	}
}

// TestGaugePanicSurvivesTick: a panicking gauge-func must not kill the
// sampler tick; its value reads NaN, the panic is counted, and alerts on
// it simply never fire.
func TestGaugePanicSurvivesTick(t *testing.T) {
	reg := metrics.NewRegistry()
	reg.NewGaugeFunc("boom", "always panics", func() float64 { panic("kaboom") })
	reg.NewGauge("ok_gauge", "fine").Set(7)
	s := newTestSampler(t, reg, nil)
	mustCreateAlert(t, s, "CREATE ALERT b ON boom > 0")

	s.Tick(time.Unix(6000, 0)) // must not panic
	s.Tick(time.Unix(6001, 0))

	if got := reg.GaugePanics(); got == 0 {
		t.Error("GaugePanics = 0, want > 0")
	}
	sawBoom, sawOK := false, false
	for _, row := range rowsFromTable(t, HistoryTable(s)) {
		switch row[2].S {
		case "boom":
			sawBoom = true
			if !math.IsNaN(row[5].F64) {
				t.Errorf("boom value = %v, want NaN", row[5].F64)
			}
		case "ok_gauge":
			sawOK = true
		}
	}
	if !sawBoom || !sawOK {
		t.Errorf("history rows: sawBoom=%v sawOK=%v, want both (tick must survive the panic)", sawBoom, sawOK)
	}
	for _, row := range rowsFromTable(t, AlertsTable(s)) {
		if row[0].S == "b" && row[2].S != StateInactive {
			t.Errorf("alert on panicking gauge: state = %q, want inactive", row[2].S)
		}
	}
}
