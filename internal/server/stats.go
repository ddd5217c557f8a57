package server

import (
	"fmt"
	"strings"
	"sync/atomic"
	"time"

	"indbml/internal/metrics"
)

// Stats are the server's live counters. All fields are atomics so the hot
// path (every statement on every session) never takes a lock; STATUS reads
// a consistent-enough snapshot without stopping traffic.
//
// The latency and queue-wait distributions live in metrics.Histogram, the
// same collectors exported on the registry page, so STATUS and METRICS can
// never disagree about what the server measured.
type Stats struct {
	ActiveSessions atomic.Int64
	TotalSessions  atomic.Int64

	Queued    atomic.Int64 // statements waiting for a query slot
	Running   atomic.Int64 // statements holding a query slot
	Completed atomic.Int64 // statements finished successfully
	Canceled  atomic.Int64 // statements ended by deadline/cancellation
	Failed    atomic.Int64 // statements ended by a query error
	Rejected  atomic.Int64 // statements fast-rejected by admission control

	RowsServed atomic.Int64
	SlowLogged atomic.Int64 // statements written to the slow-query log

	Latency    *metrics.Histogram // statement wall time, seconds
	QueuedWait *metrics.Histogram // time spent waiting for a slot, seconds
}

// newStats wires the counters into the registry: the histograms are owned
// by the registry directly, and the atomic counters are mirrored with
// scrape-time gauges so the hot path stays a single atomic add.
func newStats(reg *metrics.Registry) *Stats {
	s := &Stats{
		Latency: reg.NewHistogram("vectordb_statement_seconds",
			"Statement wall time from receipt to final frame.", metrics.DefaultLatencyBounds),
		QueuedWait: reg.NewHistogram("vectordb_queued_wait_seconds",
			"Time statements spent waiting for a query slot.", metrics.DefaultLatencyBounds),
	}
	mirror := func(name, help string, v *atomic.Int64) {
		reg.NewGaugeFunc(name, help, func() float64 { return float64(v.Load()) })
	}
	mirror("vectordb_sessions_active", "Currently open sessions.", &s.ActiveSessions)
	mirror("vectordb_sessions_total", "Sessions accepted since start.", &s.TotalSessions)
	mirror("vectordb_queries_queued", "Statements waiting for a query slot.", &s.Queued)
	mirror("vectordb_queries_running", "Statements holding a query slot.", &s.Running)
	mirror("vectordb_queries_completed_total", "Statements finished successfully.", &s.Completed)
	mirror("vectordb_queries_canceled_total", "Statements ended by deadline or cancellation.", &s.Canceled)
	mirror("vectordb_queries_failed_total", "Statements ended by a query error.", &s.Failed)
	mirror("vectordb_queries_rejected_total", "Statements fast-rejected by admission control.", &s.Rejected)
	mirror("vectordb_rows_served_total", "Result rows streamed to clients.", &s.RowsServed)
	mirror("vectordb_slow_queries_logged_total", "Statements written to the slow-query log.", &s.SlowLogged)
	return s
}

// observeLatency records one statement's wall time into the histogram,
// stamping the bucket's exemplar with the flight-recorder query ID when
// the statement has one.
func (s *Stats) observeLatency(d time.Duration, queryID uint64) {
	s.Latency.ObserveDurationExemplar(d, queryID)
}

// Snapshot is a point-in-time copy of the counters.
type Snapshot struct {
	ActiveSessions, TotalSessions         int64
	Queued, Running                       int64
	Completed, Canceled, Failed, Rejected int64
	RowsServed                            int64
	Latency                               metrics.HistogramSnapshot
	QueuedWait                            metrics.HistogramSnapshot
	Slots, SlotsInUse, QueueDepth         int64

	// Model artifact cache counters, copied from the engine at render time.
	CacheHits, CacheMisses, CacheEvictions uint64
	CacheEntries                           int

	// Batcher is the inference scheduler's one-line summary (queue depth,
	// in-flight batches, rolling means), or "disabled".
	Batcher string

	// Shards is the distributed coordinator's fleet summary (shard count,
	// reachability, cumulative fragment errors); empty on non-coordinators.
	Shards string

	// Alerts is the telemetry alert-set summary (rule/pending/firing
	// counts plus firing names).
	Alerts string
}

// Snapshot copies the counters.
func (s *Stats) snapshot() Snapshot {
	var out Snapshot
	out.ActiveSessions = s.ActiveSessions.Load()
	out.TotalSessions = s.TotalSessions.Load()
	out.Queued = s.Queued.Load()
	out.Running = s.Running.Load()
	out.Completed = s.Completed.Load()
	out.Canceled = s.Canceled.Load()
	out.Failed = s.Failed.Load()
	out.Rejected = s.Rejected.Load()
	out.RowsServed = s.RowsServed.Load()
	out.Latency = s.Latency.Snapshot()
	out.QueuedWait = s.QueuedWait.Snapshot()
	return out
}

// String renders the snapshot as the plain-text STATUS payload.
func (sn Snapshot) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "sessions: active=%d total=%d\n", sn.ActiveSessions, sn.TotalSessions)
	fmt.Fprintf(&sb, "queries: running=%d queued=%d completed=%d canceled=%d failed=%d rejected=%d\n",
		sn.Running, sn.Queued, sn.Completed, sn.Canceled, sn.Failed, sn.Rejected)
	fmt.Fprintf(&sb, "slots: total=%d in_use=%d queue_depth=%d\n", sn.Slots, sn.SlotsInUse, sn.QueueDepth)
	fmt.Fprintf(&sb, "model_cache: hits=%d misses=%d evictions=%d entries=%d\n",
		sn.CacheHits, sn.CacheMisses, sn.CacheEvictions, sn.CacheEntries)
	if sn.Batcher != "" {
		fmt.Fprintf(&sb, "batcher: %s\n", sn.Batcher)
	}
	if sn.Shards != "" {
		fmt.Fprintf(&sb, "shards: %s\n", sn.Shards)
	}
	fmt.Fprintf(&sb, "alerts: %s\n", sn.Alerts)
	fmt.Fprintf(&sb, "rows_served: %d\n", sn.RowsServed)
	writeHistLine(&sb, "latency", sn.Latency)
	writeHistLine(&sb, "queued_wait", sn.QueuedWait)
	return sb.String()
}

// writeHistLine renders one histogram as a "name: le_1ms=N ... gt_10s=N"
// line, converting the second-valued bounds back to durations.
func writeHistLine(sb *strings.Builder, name string, h metrics.HistogramSnapshot) {
	fmt.Fprintf(sb, "%s:", name)
	for i, b := range h.Bounds {
		fmt.Fprintf(sb, " le_%s=%d", time.Duration(b*float64(time.Second)), h.Buckets[i])
	}
	last := ""
	if n := len(h.Bounds); n > 0 {
		last = time.Duration(h.Bounds[n-1] * float64(time.Second)).String()
	}
	fmt.Fprintf(sb, " gt_%s=%d\n", last, h.Buckets[len(h.Buckets)-1])
}
