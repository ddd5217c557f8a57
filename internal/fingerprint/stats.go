package fingerprint

import (
	"sort"
	"sync"
)

// LatencyBucketsNS are the upper bounds (inclusive, nanoseconds) of the
// per-shape latency histogram; the last bucket is unbounded. Decade buckets
// from 10µs to 10s cover everything from a point lookup to a runaway
// MODEL JOIN.
var LatencyBucketsNS = []int64{
	10_000,         // 10µs
	100_000,        // 100µs
	1_000_000,      // 1ms
	10_000_000,     // 10ms
	100_000_000,    // 100ms
	1_000_000_000,  // 1s
	10_000_000_000, // 10s
}

// NumLatencyBuckets includes the overflow (+Inf) bucket.
var NumLatencyBuckets = len(LatencyBucketsNS) + 1

// Observation is one finished statement, as reported by the flight
// recorder at publish time.
type Observation struct {
	Fingerprint uint64
	// NormSQL is the normalized statement text, retained once per shape as
	// the human-readable exemplar.
	NormSQL      string
	Approach     string
	Device       string
	LatencyNS    int64
	QueueWaitNS  int64
	Err          bool
	RowsIn       int64
	RowsOut      int64
	BytesScanned int64
	CacheHit     bool // model artifact cache verdict was "hit"
	CacheSeen    bool // the statement consulted the cache at all
	Batched      bool // inference ran through the batching scheduler
	BatchSeen    bool // the statement ran inference at all
}

// Key identifies one statistics row: the paper's approach dimension and the
// execution device are part of the identity, so the same statement shape
// run as modeljoin-cpu vs modeljoin-gpu accumulates separately, and
// system.statement_stats can compare approaches and devices per shape.
type Key struct {
	Fingerprint uint64
	Approach    string
	Device      string
}

// entry is the cumulative record for one key. Mutated only under its
// shard's lock; Observe takes the lock once per finished statement, far off
// any per-batch path.
type entry struct {
	normSQL        string
	calls          int64
	errors         int64
	totalLatencyNS int64
	minLatencyNS   int64
	maxLatencyNS   int64
	totalQueueNS   int64
	buckets        [16]int64 // sized ≥ NumLatencyBuckets
	rowsIn         int64
	rowsOut        int64
	bytesScanned   int64
	cacheHits      int64
	cacheLookups   int64
	batched        int64
	inferences     int64
}

// Row is one immutable snapshot row of system.statement_stats.
type Row struct {
	Key
	NormSQL        string
	Calls          int64
	Errors         int64
	TotalLatencyNS int64
	MinLatencyNS   int64
	MaxLatencyNS   int64
	TotalQueueNS   int64
	Buckets        []int64 // len == NumLatencyBuckets
	RowsIn         int64
	RowsOut        int64
	BytesScanned   int64
	// CacheHitFraction is hits / cache lookups (-1 when the shape never
	// consulted the model cache); BatchedFraction likewise over inferences.
	CacheHitFraction float64
	BatchedFraction  float64
}

const statsShards = 16

// Stats is the lock-sharded cumulative store. Statements hash to a shard by
// fingerprint, so concurrent sessions publishing different shapes never
// contend; same-shape publishes serialize on one shard mutex, which is the
// cheapest correct thing for read-modify-write aggregation.
type Stats struct {
	shards [statsShards]statsShard
}

type statsShard struct {
	mu sync.Mutex
	m  map[Key]*entry
}

// NewStats creates an empty store.
func NewStats() *Stats {
	s := &Stats{}
	for i := range s.shards {
		s.shards[i].m = make(map[Key]*entry)
	}
	return s
}

// Observe folds one finished statement into its row.
func (s *Stats) Observe(o Observation) {
	k := Key{Fingerprint: o.Fingerprint, Approach: o.Approach, Device: o.Device}
	sh := &s.shards[o.Fingerprint%statsShards]
	sh.mu.Lock()
	e := sh.m[k]
	if e == nil {
		e = &entry{normSQL: o.NormSQL, minLatencyNS: o.LatencyNS}
		sh.m[k] = e
	}
	e.calls++
	if o.Err {
		e.errors++
	}
	e.totalLatencyNS += o.LatencyNS
	e.totalQueueNS += o.QueueWaitNS
	if o.LatencyNS < e.minLatencyNS {
		e.minLatencyNS = o.LatencyNS
	}
	if o.LatencyNS > e.maxLatencyNS {
		e.maxLatencyNS = o.LatencyNS
	}
	e.buckets[bucketFor(o.LatencyNS)]++
	e.rowsIn += o.RowsIn
	e.rowsOut += o.RowsOut
	e.bytesScanned += o.BytesScanned
	if o.CacheSeen {
		e.cacheLookups++
		if o.CacheHit {
			e.cacheHits++
		}
	}
	if o.BatchSeen {
		e.inferences++
		if o.Batched {
			e.batched++
		}
	}
	sh.mu.Unlock()
}

func bucketFor(latencyNS int64) int {
	for i, b := range LatencyBucketsNS {
		if latencyNS <= b {
			return i
		}
	}
	return len(LatencyBucketsNS)
}

// Shapes returns the number of distinct (fingerprint, approach, device)
// rows accumulated so far.
func (s *Stats) Shapes() int {
	n := 0
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		n += len(sh.m)
		sh.mu.Unlock()
	}
	return n
}

// Snapshot returns all rows, ordered by total latency descending (the
// "what dominates this workload" order), ties broken by key for stability.
func (s *Stats) Snapshot() []Row {
	var out []Row
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		for k, e := range sh.m {
			r := Row{
				Key:            k,
				NormSQL:        e.normSQL,
				Calls:          e.calls,
				Errors:         e.errors,
				TotalLatencyNS: e.totalLatencyNS,
				MinLatencyNS:   e.minLatencyNS,
				MaxLatencyNS:   e.maxLatencyNS,
				TotalQueueNS:   e.totalQueueNS,
				Buckets:        append([]int64(nil), e.buckets[:NumLatencyBuckets]...),
				RowsIn:         e.rowsIn,
				RowsOut:        e.rowsOut,
				BytesScanned:   e.bytesScanned,
			}
			if e.cacheLookups > 0 {
				r.CacheHitFraction = float64(e.cacheHits) / float64(e.cacheLookups)
			} else {
				r.CacheHitFraction = -1
			}
			if e.inferences > 0 {
				r.BatchedFraction = float64(e.batched) / float64(e.inferences)
			} else {
				r.BatchedFraction = -1
			}
			out = append(out, r)
		}
		sh.mu.Unlock()
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].TotalLatencyNS != out[j].TotalLatencyNS {
			return out[i].TotalLatencyNS > out[j].TotalLatencyNS
		}
		if out[i].Fingerprint != out[j].Fingerprint {
			return out[i].Fingerprint < out[j].Fingerprint
		}
		if out[i].Approach != out[j].Approach {
			return out[i].Approach < out[j].Approach
		}
		return out[i].Device < out[j].Device
	})
	return out
}
