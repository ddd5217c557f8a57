package dist_test

import (
	"strings"
	"testing"
	"time"

	"indbml/internal/dist"
	"indbml/internal/engine/db"
	"indbml/internal/server"
	"indbml/internal/server/client"
)

// TestObservabilityWiredAtOpen: an engine's observability comes from
// db.Open, not from whoever hosts it. A bare engine has system.metrics with
// the scheduler's, model cache's and alert set's collectors, takes CREATE
// ALERT and fills its history when ticked; a coordinator's fleet tables
// carry exactly one shard column whichever of server.New and dist.New runs
// first; and STATUS / BATCHER keep their labels.
func TestObservabilityWiredAtOpen(t *testing.T) {
	d := db.Open(db.Options{})
	names := map[string]bool{}
	b, err := d.Query("SELECT name FROM system.metrics")
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range b.Vecs[0].Strings() {
		names[name] = true
	}
	for _, want := range []string{"vectordb_infer_batches_total", "vectordb_model_cache_evictions_total", "vectordb_alerts_firing"} {
		if !names[want] {
			t.Errorf("bare engine's system.metrics lacks %s", want)
		}
	}
	if err := d.Exec("CREATE ALERT up ON vectordb_uptime_seconds > 0"); err != nil {
		t.Fatalf("CREATE ALERT on a bare engine: %v", err)
	}
	if b, err = d.Query("SELECT name FROM system.alerts"); err != nil || b.Len() != 1 || b.Vecs[0].Strings()[0] != "up" {
		t.Fatalf("system.alerts after CREATE ALERT: %v rows, err %v", b, err)
	}
	now := time.Now()
	d.Telemetry().Tick(now)
	d.Telemetry().Tick(now.Add(time.Second))
	if b, err = d.Query("SELECT COUNT(*) AS n FROM system.metrics_history"); err != nil || b.Vecs[0].Int64s()[0] == 0 {
		t.Fatalf("system.metrics_history empty after two ticks (err %v)", err)
	}

	opts := db.Options{DefaultPartitions: 2}
	addrs := []string{startShard(t, opts).addr}
	var srv *server.Server
	for _, serverFirst := range []bool{true, false} {
		coord := db.Open(opts)
		var co *dist.Coordinator
		if serverFirst {
			srv = serveDB(t, coord)
			co = dist.New(coord, addrs)
		} else {
			co = dist.New(coord, addrs)
			srv = serveDB(t, coord)
		}
		t.Cleanup(co.Close)
		for _, table := range []string{"system.queries", "system.metrics", "system.alerts"} {
			op, err := coord.QueryOp("SELECT * FROM " + table)
			if err != nil {
				t.Fatal(err)
			}
			schema := op.Schema()
			shardCols := 0
			for i := 0; i < schema.Len(); i++ {
				if schema.Col(i).Name == "shard" {
					shardCols++
				}
			}
			if shardCols != 1 || schema.Col(0).Name != "shard" {
				t.Errorf("server first=%v: %s has %d shard columns (first column %q), want one leading",
					serverFirst, table, shardCols, schema.Col(0).Name)
			}
			op.Close()
		}
	}

	c, err := client.Dial(srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	status, err := c.Status()
	if err != nil {
		t.Fatal(err)
	}
	batcher, err := c.Batcher()
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct{ text, line, labels string }{
		{status, "batcher:", "queues depth inflight batches coalesced mean_rows mean_wait"},
		{batcher, "coalesce_wait:", "le_50µs le_100µs le_250µs le_500µs le_1ms le_5ms le_25ms gt_25ms"},
	} {
		if got := lineLabels(tc.text, tc.line); got != tc.labels {
			t.Errorf("%s labels = %q, want %q", tc.line, got, tc.labels)
		}
	}
}

// lineLabels returns the key of every key=value field on the text's line
// that starts with prefix, space-separated.
func lineLabels(text, prefix string) string {
	for _, line := range strings.Split(text, "\n") {
		if !strings.HasPrefix(line, prefix) {
			continue
		}
		var keys []string
		for _, f := range strings.Fields(strings.TrimPrefix(line, prefix)) {
			if k, _, ok := strings.Cut(f, "="); ok {
				keys = append(keys, k)
			}
		}
		return strings.Join(keys, " ")
	}
	return ""
}
