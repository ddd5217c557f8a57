package fingerprint

import (
	"fmt"
	"sync"
	"testing"
)

func TestNormalizeFoldsLiterals(t *testing.T) {
	cases := []struct{ a, b string }{
		{"SELECT * FROM t WHERE id = 5", "SELECT * FROM t WHERE id = 42"},
		{"SELECT * FROM t WHERE id = 5", "select  *  from T where ID=7"},
		{"SELECT * FROM t WHERE name = 'a'", "SELECT * FROM t WHERE name = 'zz''q'"},
		{"SELECT * FROM t WHERE x = -5", "SELECT * FROM t WHERE x = -9.25"},
		{"SELECT * FROM t WHERE x = 1e3", "SELECT * FROM t WHERE x = 2.5e-2"},
		{"SELECT a FROM t LIMIT 10", "SELECT a FROM t LIMIT 99"},
		{"INSERT INTO t VALUES (1, 'x')", "INSERT INTO t VALUES (2, 'y')"},
		{"SELECT * FROM system.queries", "SELECT * FROM \"system\".\"queries\""},
		{"SELECT * FROM system.queries", "SELECT * FROM SYSTEM.QUERIES"},
		{"SELECT a\n\tFROM t", "SELECT a FROM t"},
		{"  SELECT 1  ", "SELECT 2"},
	}
	for _, c := range cases {
		fa, na := Normalize(c.a)
		fb, nb := Normalize(c.b)
		if na != nb {
			t.Errorf("normalized text differs:\n  %q -> %q\n  %q -> %q", c.a, na, c.b, nb)
		}
		if fa != fb {
			t.Errorf("fingerprints differ for %q vs %q: %x vs %x", c.a, c.b, fa, fb)
		}
	}
}

func TestNormalizeDistinguishesShapes(t *testing.T) {
	cases := [][2]string{
		{"SELECT a FROM t", "SELECT b FROM t"},
		{"SELECT a FROM t", "SELECT a FROM u"},
		{"SELECT a FROM t", "SELECT a FROM t WHERE a = 1"},
		{"SELECT a FROM t WHERE a = 1", "SELECT a FROM t WHERE a > 1"},
		{"SELECT a - 1 FROM t", "SELECT a + 1 FROM t"},
		{"SELECT a FROM t", "SELECT a FROM t LIMIT 1"},
	}
	for _, c := range cases {
		if Fingerprint(c[0]) == Fingerprint(c[1]) {
			t.Errorf("distinct shapes collided: %q vs %q", c[0], c[1])
		}
	}
}

func TestNormalizeText(t *testing.T) {
	cases := []struct{ in, want string }{
		{"SELECT  *  FROM T WHERE id = 5", "select * from t where id = ?"},
		{"select name from t where name='x'  limit  3", "select name from t where name = ? limit ?"},
		{"SELECT a FROM \"System\".\"Queries\"", "select a from system . queries"},
		{"SELECT \"Mixed Case\", \"it's\", \"5x\", \"\" FROM t", "select \"mixed case\" , \"it's\" , \"5x\" , \"\" from t"},
		{"", ""},
		{"   ", ""},
	}
	for _, c := range cases {
		if _, got := Normalize(c.in); got != c.want {
			t.Errorf("Normalize(%q) text = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestFingerprintMatchesNormalizedHash(t *testing.T) {
	// Fingerprint (no text) and Normalize (text) must agree byte for byte.
	stmts := []string{
		"SELECT * FROM t WHERE id = 5 AND name = 'x'",
		"  EXPLAIN ANALYZE SELECT a, b FROM t MODEL JOIN m PREDICT (a, b)",
		"KILL 17",
		"not even sql '' 5 --",
	}
	for _, s := range stmts {
		fp, norm := Normalize(s)
		if fp != Fingerprint(s) {
			t.Errorf("Fingerprint(%q) != Normalize hash", s)
		}
		// Re-normalizing the normalized text is a fixed point.
		fp2, norm2 := Normalize(norm)
		if norm2 != norm || fp2 != fp {
			t.Errorf("normalization not idempotent for %q: %q -> %q", s, norm, norm2)
		}
	}
}

func TestStatsObserve(t *testing.T) {
	s := NewStats()
	fp, norm := Normalize("SELECT * FROM t WHERE id = 1")
	for i := 0; i < 5; i++ {
		s.Observe(Observation{
			Fingerprint: fp, NormSQL: norm, Approach: "modeljoin", Device: "cpu",
			LatencyNS: int64(i+1) * 1_000_000, RowsIn: 100, RowsOut: 10,
			BytesScanned: 1 << 10,
			CacheSeen:    true, CacheHit: i > 0,
			BatchSeen: true, Batched: i%2 == 0,
		})
	}
	s.Observe(Observation{Fingerprint: fp, NormSQL: norm, Approach: "modeljoin", Device: "gpu", LatencyNS: 1})
	s.Observe(Observation{Fingerprint: fp, NormSQL: norm, Approach: "sql", Device: "", LatencyNS: 1, Err: true})

	if got := s.Shapes(); got != 3 {
		t.Fatalf("Shapes = %d, want 3 (per approach/device)", got)
	}
	rows := s.Snapshot()
	if len(rows) != 3 {
		t.Fatalf("Snapshot rows = %d, want 3", len(rows))
	}
	// Ordered by total latency descending: the cpu row dominates.
	r := rows[0]
	if r.Approach != "modeljoin" || r.Device != "cpu" {
		t.Fatalf("dominant row = %s/%s, want modeljoin/cpu", r.Approach, r.Device)
	}
	if r.Calls != 5 || r.Errors != 0 {
		t.Errorf("calls=%d errors=%d, want 5/0", r.Calls, r.Errors)
	}
	if r.MinLatencyNS != 1_000_000 || r.MaxLatencyNS != 5_000_000 {
		t.Errorf("min/max = %d/%d", r.MinLatencyNS, r.MaxLatencyNS)
	}
	if r.TotalLatencyNS != 15_000_000 {
		t.Errorf("total latency = %d", r.TotalLatencyNS)
	}
	if r.RowsIn != 500 || r.RowsOut != 50 || r.BytesScanned != 5<<10 {
		t.Errorf("rows in/out/bytes = %d/%d/%d", r.RowsIn, r.RowsOut, r.BytesScanned)
	}
	if r.CacheHitFraction != 0.8 {
		t.Errorf("cache hit fraction = %v, want 0.8", r.CacheHitFraction)
	}
	if r.BatchedFraction != 0.6 {
		t.Errorf("batched fraction = %v, want 0.6", r.BatchedFraction)
	}
	if len(r.Buckets) != NumLatencyBuckets {
		t.Fatalf("bucket count = %d, want %d", len(r.Buckets), NumLatencyBuckets)
	}
	// 1ms sits exactly on the ≤1ms bound (index 2); 2..5ms land in ≤10ms.
	if r.Buckets[2] != 1 || r.Buckets[3] != 4 {
		t.Errorf("buckets = %v, want [.. 1 4 ..]", r.Buckets)
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
	s := NewStats()
	// One observation exactly on each bound, plus one beyond all bounds.
	for _, b := range LatencyBucketsNS {
		s.Observe(Observation{Fingerprint: 1, Approach: "sql", LatencyNS: b})
	}
	s.Observe(Observation{Fingerprint: 1, Approach: "sql", LatencyNS: LatencyBucketsNS[len(LatencyBucketsNS)-1] + 1})
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
	s := NewStats()
	const goroutines, per = 8, 500
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				fp := Fingerprint(fmt.Sprintf("SELECT %d FROM t%d", i, g%4))
				s.Observe(Observation{Fingerprint: fp, Approach: "sql", LatencyNS: 1000})
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
