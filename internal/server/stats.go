package server

import (
	"fmt"
	"strings"
	"time"

	"indbml/internal/metrics"
	"indbml/internal/wire"
)

// Stats are the server's live counters: the registry's own gauges and
// histograms, so the hot path (every statement on every session) is an
// atomic add, and STATUS and METRICS can never disagree about what the
// server measured.
type Stats struct {
	ActiveSessions *metrics.Gauge
	TotalSessions  *metrics.Gauge

	Queued    *metrics.Gauge // statements waiting for a query slot
	Running   *metrics.Gauge // statements holding a query slot
	Completed *metrics.Gauge // statements finished successfully
	Canceled  *metrics.Gauge // statements ended by deadline/cancellation
	Failed    *metrics.Gauge // statements ended by a query error
	Rejected  *metrics.Gauge // statements fast-rejected by admission control

	RowsServed *metrics.Gauge
	SlowLogged *metrics.Gauge // statements written to the slow-query log

	Latency    *metrics.Histogram // statement wall time, seconds
	QueuedWait *metrics.Histogram // time spent waiting for a slot, seconds
}

// newStats registers the server's counters and histograms on reg.
func newStats(reg *metrics.Registry) *Stats {
	return &Stats{
		Latency: reg.NewHistogram("vectordb_statement_seconds",
			"Statement wall time from receipt to final frame.", metrics.DefaultLatencyBounds),
		QueuedWait: reg.NewHistogram("vectordb_queued_wait_seconds",
			"Time statements spent waiting for a query slot.", metrics.DefaultLatencyBounds),
		ActiveSessions: reg.NewGauge("vectordb_sessions_active", "Currently open sessions."),
		TotalSessions:  reg.NewGauge("vectordb_sessions_total", "Sessions accepted since start."),
		Queued:         reg.NewGauge("vectordb_queries_queued", "Statements waiting for a query slot."),
		Running:        reg.NewGauge("vectordb_queries_running", "Statements holding a query slot."),
		Completed:      reg.NewGauge("vectordb_queries_completed_total", "Statements finished successfully."),
		Canceled:       reg.NewGauge("vectordb_queries_canceled_total", "Statements ended by deadline or cancellation."),
		Failed:         reg.NewGauge("vectordb_queries_failed_total", "Statements ended by a query error."),
		Rejected:       reg.NewGauge("vectordb_queries_rejected_total", "Statements fast-rejected by admission control."),
		RowsServed:     reg.NewGauge("vectordb_rows_served_total", "Result rows streamed to clients."),
		SlowLogged:     reg.NewGauge("vectordb_slow_queries_logged_total", "Statements written to the slow-query log."),
	}
}

// observeLatency records one statement's wall time into the histogram,
// stamping the bucket's exemplar with the flight-recorder query ID when
// the statement has one.
func (s *Stats) observeLatency(d time.Duration, queryID uint64) {
	s.Latency.ObserveDurationExemplar(d, queryID)
}

// countOutcome counts a finished statement as completed, canceled or
// failed.
func (s *Stats) countOutcome(err error) {
	switch {
	case err == nil:
		s.Completed.Add(1)
	case wire.IsCancellation(err):
		s.Canceled.Add(1)
	default:
		s.Failed.Add(1)
	}
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
	out.ActiveSessions = s.ActiveSessions.Value()
	out.TotalSessions = s.TotalSessions.Value()
	out.Queued = s.Queued.Value()
	out.Running = s.Running.Value()
	out.Completed = s.Completed.Value()
	out.Canceled = s.Canceled.Value()
	out.Failed = s.Failed.Value()
	out.Rejected = s.Rejected.Value()
	out.RowsServed = s.RowsServed.Value()
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
