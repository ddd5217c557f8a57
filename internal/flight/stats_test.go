package flight

import (
	"fmt"
	"sync"
	"testing"

	"indbml/internal/engine/sql"
)

func TestStatsObserve(t *testing.T) {
	r := NewRecorder(8)
	s := r.Stats()
	fp, norm := sql.Normalize("SELECT * FROM t WHERE id = 1")
	for i := 0; i < 5; i++ {
		sum := &Summary{
			Fingerprint: fp, normSQL: norm, Approach: "modeljoin", Device: "cpu",
			LatencyNS: int64(i+1) * 1_000_000, RowsIn: 100, RowsOut: 10,
			BytesScanned: 1 << 10,
			Cache:        "miss", Batched: "no",
		}
		if i > 0 {
			sum.Cache = "hit"
		}
		if i%2 == 0 {
			sum.Batched = "yes"
		}
		s.observe(sum)
	}
	s.observe(&Summary{Fingerprint: fp, normSQL: norm, Approach: "modeljoin", Device: "gpu", LatencyNS: 1})
	s.observe(&Summary{Fingerprint: fp, normSQL: norm, Approach: "sql", Device: "", LatencyNS: 1, Error: "boom"})

	rows := s.Snapshot()
	if len(rows) != 3 {
		t.Fatalf("Snapshot rows = %d, want 3 (per approach/device)", len(rows))
	}
	// Ordered by total latency descending: the cpu row dominates.
	row := rows[0]
	if row.Approach != "modeljoin" || row.Device != "cpu" {
		t.Fatalf("dominant row = %s/%s, want modeljoin/cpu", row.Approach, row.Device)
	}
	if row.Calls != 5 || row.Errors != 0 {
		t.Errorf("calls=%d errors=%d, want 5/0", row.Calls, row.Errors)
	}
	if row.MinLatencyNS != 1_000_000 || row.MaxLatencyNS != 5_000_000 {
		t.Errorf("min/max = %d/%d", row.MinLatencyNS, row.MaxLatencyNS)
	}
	if row.TotalLatencyNS != 15_000_000 {
		t.Errorf("total latency = %d", row.TotalLatencyNS)
	}
	if row.RowsIn != 500 || row.RowsOut != 50 || row.BytesScanned != 5<<10 {
		t.Errorf("rows in/out/bytes = %d/%d/%d", row.RowsIn, row.RowsOut, row.BytesScanned)
	}
	if row.CacheHitFraction != 0.8 {
		t.Errorf("cache hit fraction = %v, want 0.8", row.CacheHitFraction)
	}
	if row.BatchedFraction != 0.6 {
		t.Errorf("batched fraction = %v, want 0.6", row.BatchedFraction)
	}
	if len(row.Buckets) != NumLatencyBuckets {
		t.Fatalf("bucket count = %d, want %d", len(row.Buckets), NumLatencyBuckets)
	}
	// 1ms sits exactly on the ≤1ms bound (index 2); 2..5ms land in ≤10ms.
	if row.Buckets[2] != 1 || row.Buckets[3] != 4 {
		t.Errorf("buckets = %v, want [.. 1 4 ..]", row.Buckets)
	}
	// The error row keeps its error count and a -1 fraction sentinel.
	for _, row := range rows {
		if row.Approach == "sql" {
			if row.Errors != 1 {
				t.Errorf("sql row errors = %d, want 1", row.Errors)
			}
			if row.CacheHitFraction != -1 || row.BatchedFraction != -1 {
				t.Errorf("sql row fractions = %v/%v, want -1/-1", row.CacheHitFraction, row.BatchedFraction)
			}
		}
	}
}

func TestStatsBucketBounds(t *testing.T) {
	s := NewRecorder(8).Stats()
	// One observation exactly on each bound, plus one beyond all bounds.
	for _, b := range LatencyBucketsNS {
		s.observe(&Summary{Fingerprint: 1, Approach: "sql", LatencyNS: b})
	}
	s.observe(&Summary{Fingerprint: 1, Approach: "sql", LatencyNS: LatencyBucketsNS[len(LatencyBucketsNS)-1] + 1})
	rows := s.Snapshot()
	if len(rows) != 1 {
		t.Fatalf("rows = %d", len(rows))
	}
	for i, c := range rows[0].Buckets {
		if c != 1 {
			t.Errorf("bucket %d = %d, want exactly 1; buckets=%v", i, c, rows[0].Buckets)
		}
	}
}

func TestStatsConcurrent(t *testing.T) {
	s := NewRecorder(8).Stats()
	const goroutines, per = 8, 500
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				fp, _ := sql.Normalize(fmt.Sprintf("SELECT %d FROM t%d", i, g%4))
				s.observe(&Summary{Fingerprint: fp, Approach: "sql", LatencyNS: 1000})
			}
		}(g)
	}
	wg.Wait()
	var calls int64
	for _, r := range s.Snapshot() {
		calls += r.Calls
	}
	if calls != goroutines*per {
		t.Fatalf("total calls = %d, want %d", calls, goroutines*per)
	}
}
