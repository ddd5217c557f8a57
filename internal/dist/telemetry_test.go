package dist_test

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"indbml/internal/engine/db"
)

// Fleet telemetry end-to-end: a coordinator over three shard daemons, each
// node with its own sampler, with CREATE ALERT broadcast to every shard and
// the fleet system.alerts / system.metrics_history views unioning all four
// nodes under a leading shard column. The test ticks every node's sampler
// itself instead of waiting for the shard servers' one-second interval.

func TestFleetAlertsAndHistory(t *testing.T) {
	opts := db.Options{DefaultPartitions: 2, Parallelism: 2}
	const n = 3
	coord, _, shards := newCluster(t, n, opts)
	tickAll := func() {
		now := time.Now()
		coord.Telemetry().Tick(now)
		for _, sh := range shards {
			sh.db.Telemetry().Tick(now)
		}
	}

	// Deterministic rule: uptime is positive on every node from the first
	// tick, and FOR defaults to 0, so all four nodes fire immediately.
	if err := coord.Exec("CREATE ALERT up ON vectordb_uptime_seconds > 0"); err != nil {
		t.Fatalf("CREATE ALERT on coordinator: %v", err)
	}

	// Shard labels render as "shard <i> (<addr>)"; normalize to the stable
	// prefix so expectations don't depend on ephemeral ports.
	wantShards := map[string]bool{"coordinator": true}
	for i := 0; i < n; i++ {
		wantShards[fmt.Sprintf("shard %d", i)] = true
	}
	normalize := func(label string) string {
		if i := strings.Index(label, " ("); i >= 0 {
			return label[:i]
		}
		return label
	}

	// Poll the fleet view until every node reports the broadcast rule
	// firing under its own shard label.
	deadline := time.Now().Add(10 * time.Second)
	for {
		tickAll()
		firing := map[string]bool{}
		b, err := coord.Query("SELECT shard, name, state FROM system.alerts WHERE name = 'up' AND state = 'firing'")
		if err != nil {
			t.Fatal(err)
		}
		for r := 0; r < b.Len(); r++ {
			firing[normalize(b.Vecs[0].Datum(r).S)] = true
		}
		missing := 0
		for sh := range wantShards {
			if !firing[sh] {
				missing++
			}
		}
		if missing == 0 {
			for sh := range firing {
				if !wantShards[sh] {
					t.Errorf("unexpected shard label %q in fleet system.alerts", sh)
				}
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("fleet alert never fired on all nodes; firing on %v, want %v", firing, wantShards)
		}
		time.Sleep(50 * time.Millisecond)
	}

	// The fleet history view attributes every sampled series to its node.
	sawHistory := map[string]bool{}
	b, err := coord.Query("SELECT shard, metric FROM system.metrics_history WHERE metric = 'vectordb_uptime_seconds'")
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < b.Len(); r++ {
		sawHistory[normalize(b.Vecs[0].Datum(r).S)] = true
	}
	for sh := range wantShards {
		if !sawHistory[sh] {
			t.Errorf("fleet system.metrics_history has no rows for %q", sh)
		}
	}

	// DROP ALERT broadcasts too: the rule disappears fleet-wide.
	if err := coord.Exec("DROP ALERT up"); err != nil {
		t.Fatalf("DROP ALERT on coordinator: %v", err)
	}
	deadline = time.Now().Add(5 * time.Second)
	for {
		b, err := coord.Query("SELECT shard FROM system.alerts")
		if err != nil {
			t.Fatal(err)
		}
		if b.Len() == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("fleet system.alerts still has %d rows after DROP ALERT", b.Len())
		}
		time.Sleep(50 * time.Millisecond)
	}
}
