package infersched

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"indbml/internal/metrics"
)

// BatchStat is one completed super-batch's record, published to a fixed
// ring (the backing of system.inference_batches): writers push whole
// immutable records, readers snapshot without blocking anyone.
type BatchStat struct {
	ID       uint64
	Start    time.Time // pass start (end of its requests' wait)
	Model    string
	Device   string
	Requests int
	Rows     int
	WaitNS   int64 // longest wait (queue and device gate) among the batch's requests
	RunNS    int64 // pack + forward pass + scatter wall time
}

// Stats aggregates scheduler activity. All hot-path writes are atomics; the
// counters and histograms are the registry's own collectors.
type Stats struct {
	ring *metrics.Ring[BatchStat]

	batches   *metrics.Gauge // batches ever published; a batch's ID is its count
	coalesced *metrics.Gauge // batches with >1 request
	requests  *metrics.Gauge
	rows      *metrics.Gauge
	waitSum   atomic.Int64       // ns, summed over batches' max waits
	wait      *metrics.Histogram // wait before the pass, seconds; StatsText renders it
	batchRows *metrics.Histogram
}

// batchRowBounds buckets super-batch row counts; vectorsize (1024) and
// MaxBatchRows (8192) both fall on bucket edges.
var batchRowBounds = []float64{256, 512, 1024, 2048, 4096, 8192, 16384}

// newStats registers the scheduler's counters and histograms on reg. The
// wait bounds are sub-ms-centric: a request waits at most for the passes
// already running on its device, so the interesting resolution is below a
// pass's length.
func newStats(reg *metrics.Registry) *Stats {
	return &Stats{
		ring: metrics.NewRing[BatchStat](ringSize),
		wait: reg.NewHistogram("vectordb_infer_coalesce_wait_seconds",
			"Coalesce-window wait per inference super-batch (longest member request).",
			[]float64{0.00005, 0.0001, 0.00025, 0.0005, 0.001, 0.005, 0.025}),
		batchRows: reg.NewHistogram("vectordb_infer_batch_rows",
			"Rows per packed inference super-batch.", batchRowBounds),
		batches:   reg.NewGauge("vectordb_infer_batches_total", "Inference super-batches executed."),
		coalesced: reg.NewGauge("vectordb_infer_batches_coalesced_total", "Super-batches that coalesced more than one request."),
		requests:  reg.NewGauge("vectordb_infer_requests_total", "ModelJoin batch requests submitted to the scheduler."),
		rows:      reg.NewGauge("vectordb_infer_rows_total", "Feature rows run through packed inference."),
	}
}

func (st *Stats) recordBatch(label Label, requests, rows int, wait, run time.Duration) {
	st.ring.Push(&BatchStat{
		ID:       uint64(st.batches.Add(1)),
		Start:    time.Now().Add(-run),
		Model:    label.Model,
		Device:   label.Device,
		Requests: requests,
		Rows:     rows,
		WaitNS:   int64(wait),
		RunNS:    int64(run),
	})
	if requests > 1 {
		st.coalesced.Add(1)
	}
	st.requests.Add(int64(requests))
	st.rows.Add(int64(rows))
	st.waitSum.Add(int64(wait))
	st.wait.ObserveDuration(wait)
	st.batchRows.Observe(float64(rows))
}

// BatchSnapshot returns the retained batch records ordered by ID — the
// feed for the system.inference_batches virtual table.
func (s *Scheduler) BatchSnapshot() []BatchStat {
	ring := s.stats.ring.Snapshot()
	out := make([]BatchStat, len(ring))
	for i, b := range ring {
		out[i] = *b
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// StatusLine renders the one-line summary embedded in the server's STATUS
// payload.
func (s *Scheduler) StatusLine() string {
	st := s.stats
	batches := st.batches.Value()
	meanRows, meanWait := float64(0), time.Duration(0)
	if batches > 0 {
		meanRows = float64(st.rows.Value()) / float64(batches)
		meanWait = time.Duration(st.waitSum.Load() / batches)
	}
	states := s.queueStates()
	depth, inflight := 0, 0
	for _, q := range states {
		depth += q.depth
		inflight += q.inflight
	}
	return fmt.Sprintf("queues=%d depth=%d inflight=%d batches=%d coalesced=%d mean_rows=%.1f mean_wait=%s",
		len(states), depth, inflight, batches, st.coalesced.Value(), meanRows, meanWait)
}

// StatsText renders the full scheduler report served by the BATCHER verb
// and the shell's \batcher: totals, the coalesce-wait histogram and one
// line per live (model, device) queue.
func (s *Scheduler) StatsText() string {
	st := s.stats
	var sb strings.Builder
	batches := st.batches.Value()
	meanRows, meanReqs := float64(0), float64(0)
	if batches > 0 {
		meanRows = float64(st.rows.Value()) / float64(batches)
		meanReqs = float64(st.requests.Value()) / float64(batches)
	}
	fmt.Fprintf(&sb, "inference batcher: max_batch_rows=%d max_inflight=%d\n", MaxBatchRows, MaxInFlight)
	fmt.Fprintf(&sb, "batches: total=%d coalesced=%d requests=%d rows=%d mean_rows=%.1f mean_requests=%.2f\n",
		batches, st.coalesced.Value(), st.requests.Value(), st.rows.Value(), meanRows, meanReqs)
	wait := st.wait.Snapshot()
	bound := func(i int) time.Duration { return time.Duration(math.Round(wait.Bounds[i] * float64(time.Second))) }
	fmt.Fprintf(&sb, "coalesce_wait:")
	for i := range wait.Bounds {
		fmt.Fprintf(&sb, " le_%s=%d", bound(i), wait.Buckets[i])
	}
	fmt.Fprintf(&sb, " gt_%s=%d", bound(len(wait.Bounds)-1), wait.Buckets[len(wait.Bounds)])
	if batches > 0 {
		fmt.Fprintf(&sb, " (mean %s)", time.Duration(st.waitSum.Load()/batches))
	}
	sb.WriteByte('\n')
	states := s.queueStates()
	sort.Slice(states, func(i, j int) bool {
		if states[i].label.Model != states[j].label.Model {
			return states[i].label.Model < states[j].label.Model
		}
		return states[i].label.Device < states[j].label.Device
	})
	for _, q := range states {
		mean := float64(0)
		if q.batches > 0 {
			mean = float64(q.rows) / float64(q.batches)
		}
		fmt.Fprintf(&sb, "queue model=%s device=%s depth=%d inflight=%d batches=%d mean_rows=%.1f\n",
			q.label.Model, q.label.Device, q.depth, q.inflight, q.batches, mean)
	}
	if len(states) == 0 {
		sb.WriteString("queues: none live\n")
	}
	return sb.String()
}

// registerQueueGauges adds the scrape-time queue depth and in-flight gauges.
func (s *Scheduler) registerQueueGauges(reg *metrics.Registry) {
	reg.NewGaugeFunc("vectordb_infer_queue_depth", "Requests pending in coalesce windows across all queues.",
		func() float64 {
			depth := 0
			for _, q := range s.queueStates() {
				depth += q.depth
			}
			return float64(depth)
		})
	reg.NewGaugeFunc("vectordb_infer_inflight", "Inference super-batches currently executing.",
		func() float64 {
			n := 0
			for _, q := range s.queueStates() {
				n += q.inflight
			}
			return float64(n)
		})
}
