// Package telemetry retains time-series history of the metrics registry
// and evaluates SQL-declared SLO alert rules against it.
//
// A sampler goroutine snapshots every collector (counters, gauges,
// gauge-funcs, histogram buckets) each tick into a fixed-size lock-free
// ring of timestamped samples; a second, coarser ring (default one sample
// per minute) keeps hours of history in bounded memory. The rings feed the
// system.metrics_history and system.latency_history virtual tables —
// counter rates and interval p50/p99 are computed from adjacent-sample
// deltas at scan time — and the alert engine (alerts.go), which runs its
// pending→firing→resolved state machine on the freshest pair of samples
// every tick. Everything is point-in-time *derived*: the engine's hot path
// never writes here, it only keeps updating the registry it already had.
package telemetry

import (
	"io"
	"sort"
	"sync"
	"time"

	"indbml/internal/metrics"
)

// The history: 1s fine samples for 5 minutes, 60s coarse samples for 12
// hours.
const (
	fineInterval   = time.Second
	fineSlots      = 300
	coarseInterval = time.Minute
	coarseSlots    = 720
)

// sample is one immutable registry snapshot. Published via atomic pointers;
// never mutated after publication.
type sample struct {
	ts   time.Time
	data []metrics.Sample
}

// ring is one history of registry samples.
type ring struct{ *metrics.Ring[sample] }

func newRing(n int) ring { return ring{metrics.NewRing[sample](n)} }

// snapshot returns the retained samples oldest-first.
func (r ring) snapshot() []*sample {
	out := r.Snapshot()
	sort.Slice(out, func(i, j int) bool { return out[i].ts.Before(out[j].ts) })
	return out
}

// Sampler owns the two history rings and the alert set for one registry.
type Sampler struct {
	reg    *metrics.Registry
	fine   ring
	coarse ring
	alerts *AlertSet

	// interval and coarseEvery are fineInterval and coarseInterval; tests
	// shorten them.
	interval, coarseEvery time.Duration

	// tickMu serializes Tick: the sampler goroutine and callers driving a
	// scripted clock may tick at once.
	tickMu     sync.Mutex
	last       *sample   // newest fine sample, guarded by tickMu
	lastCoarse time.Time // guarded by tickMu

	startOnce sync.Once
	stopOnce  sync.Once
	stop      chan struct{}
	done      chan struct{}
}

// New builds a sampler over reg and registers the vectordb_alerts_firing
// and vectordb_gauge_panics_total gauges on it. Call Start to begin
// ticking; tests can drive Tick directly with a scripted clock instead.
func New(reg *metrics.Registry) *Sampler {
	s := &Sampler{
		reg:         reg,
		fine:        newRing(fineSlots),
		coarse:      newRing(coarseSlots),
		alerts:      &AlertSet{rules: make(map[string]*alertState)},
		interval:    fineInterval,
		coarseEvery: coarseInterval,
		stop:        make(chan struct{}),
		done:        make(chan struct{}),
	}
	reg.NewGaugeFunc("vectordb_alerts_firing", "Alert rules currently in the firing state.",
		func() float64 { return float64(s.alerts.FiringCount()) })
	reg.NewGaugeFunc("vectordb_gauge_panics_total", "Gauge-func panics recovered during scrapes and sampler ticks.",
		func() float64 { return float64(reg.GaugePanics()) })
	return s
}

// Alerts exposes the alert set (CREATE/DROP ALERT land here).
func (s *Sampler) Alerts() *AlertSet { return s.alerts }

// Start launches the sampler goroutine, sending one JSON line per alert
// firing/resolved transition to alertLog (nil discards them). Only the
// first call takes effect; Stop ends the goroutine.
func (s *Sampler) Start(alertLog io.Writer) {
	s.startOnce.Do(func() {
		s.alerts.setLog(alertLog)
		go s.run()
	})
}

// Stop halts the sampler goroutine and waits for it to exit. Idempotent,
// and safe even if Start was never called.
func (s *Sampler) Stop() {
	s.stopOnce.Do(func() { close(s.stop) })
	s.startOnce.Do(func() { close(s.done) }) // never started: unblock the wait
	<-s.done
}

func (s *Sampler) run() {
	defer close(s.done)
	t := time.NewTicker(s.interval)
	defer t.Stop()
	s.Tick(time.Now()) // immediate first sample so history exists right away
	for {
		select {
		case <-s.stop:
			return
		case now := <-t.C:
			s.Tick(now)
		}
	}
}

// Tick takes one sample at the given time and evaluates the alert rules
// against the freshest pair. The sampler goroutine calls it each interval;
// tests call it directly, even while that goroutine runs.
func (s *Sampler) Tick(now time.Time) {
	s.tickMu.Lock()
	defer s.tickMu.Unlock()
	sm := &sample{ts: now, data: s.reg.Samples()}
	prev := s.last
	s.last = sm
	s.fine.Push(sm)
	if s.lastCoarse.IsZero() || now.Sub(s.lastCoarse) >= s.coarseEvery {
		s.coarse.Push(sm)
		s.lastCoarse = now
	}
	s.alerts.evaluate(now, prev, sm)
}

// StatusLine summarizes the alert set for the STATUS page, e.g.
// "rules=2 pending=0 firing=1 [hot_p99]".
func (s *Sampler) StatusLine() string { return s.alerts.statusLine() }
