package flight

import (
	"cmp"
	"slices"
	"sort"
	"strings"
	"sync"
)

// LatencyBucketsNS are the upper bounds (inclusive, nanoseconds) of the
// per-shape latency histogram; the last bucket is unbounded. Decade buckets
// from 10µs to 10s cover everything from a point lookup to a runaway
// MODEL JOIN.
var LatencyBucketsNS = [...]int64{
	10_000,         // 10µs
	100_000,        // 100µs
	1_000_000,      // 1ms
	10_000_000,     // 10ms
	100_000_000,    // 100ms
	1_000_000_000,  // 1s
	10_000_000_000, // 10s
}

// NumLatencyBuckets includes the overflow (+Inf) bucket.
const NumLatencyBuckets = len(LatencyBucketsNS) + 1

// StatKey identifies one row of system.statement_stats: the paper's
// approach dimension and the execution device are part of the identity, so
// the same statement shape run as modeljoin-cpu vs modeljoin-gpu
// accumulates separately, and the table compares approaches and devices
// per shape.
type StatKey struct {
	Fingerprint uint64
	Approach    string
	Device      string
}

// StatRow is the fold of every published Summary of one key.
type StatRow struct {
	StatKey
	NormSQL        string // the first summary's normalized text, the shape exemplar
	Calls          int64
	Errors         int64
	TotalLatencyNS int64
	MinLatencyNS   int64
	MaxLatencyNS   int64
	TotalQueueNS   int64
	Buckets        [NumLatencyBuckets]int64
	RowsIn         int64
	RowsOut        int64
	BytesScanned   int64
	// CacheHitFraction is hits / cache lookups (-1 when the shape never
	// consulted the model cache); BatchedFraction likewise over
	// inferences. Snapshot fills both.
	CacheHitFraction float64
	BatchedFraction  float64

	cacheHits, cacheLookups, batched, inferences int64
}

// Stats is the cumulative per-shape fold of published summaries. Its lock
// is taken once per finished statement, far off any per-batch path.
type Stats struct {
	mu   sync.Mutex
	rows map[StatKey]*StatRow
}

// observe folds one finished statement into its row.
func (st *Stats) observe(s *Summary) {
	k := StatKey{Fingerprint: s.Fingerprint, Approach: s.Approach, Device: s.Device}
	st.mu.Lock()
	defer st.mu.Unlock()
	r := st.rows[k]
	if r == nil {
		r = &StatRow{StatKey: k, NormSQL: s.normSQL, MinLatencyNS: s.LatencyNS}
		st.rows[k] = r
	}
	r.Calls++
	if s.Error != "" {
		r.Errors++
	}
	r.TotalLatencyNS += s.LatencyNS
	r.TotalQueueNS += s.QueueWaitNS
	r.MinLatencyNS = min(r.MinLatencyNS, s.LatencyNS)
	r.MaxLatencyNS = max(r.MaxLatencyNS, s.LatencyNS)
	r.Buckets[sort.Search(len(LatencyBucketsNS), func(i int) bool { return s.LatencyNS <= LatencyBucketsNS[i] })]++
	r.RowsIn += s.RowsIn
	r.RowsOut += s.RowsOut
	r.BytesScanned += s.BytesScanned
	if s.Cache != "" {
		r.cacheLookups++
		if s.Cache == "hit" {
			r.cacheHits++
		}
	}
	if s.Batched != "" {
		r.inferences++
		if s.Batched == "yes" {
			r.batched++
		}
	}
}

// Snapshot returns all rows, ordered by total latency descending (the
// "what dominates this workload" order), ties broken by key for stability.
func (st *Stats) Snapshot() []StatRow {
	st.mu.Lock()
	out := make([]StatRow, 0, len(st.rows))
	for _, r := range st.rows {
		row := *r
		row.CacheHitFraction = fraction(r.cacheHits, r.cacheLookups)
		row.BatchedFraction = fraction(r.batched, r.inferences)
		out = append(out, row)
	}
	st.mu.Unlock()
	slices.SortFunc(out, func(a, b StatRow) int {
		return cmp.Or(cmp.Compare(b.TotalLatencyNS, a.TotalLatencyNS), cmp.Compare(a.Fingerprint, b.Fingerprint),
			strings.Compare(a.Approach, b.Approach), strings.Compare(a.Device, b.Device))
	})
	return out
}

// fraction is n/of, or -1 when of is 0.
func fraction(n, of int64) float64 {
	if of == 0 {
		return -1
	}
	return float64(n) / float64(of)
}
