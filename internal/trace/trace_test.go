package trace

import (
	"encoding/json"
	"errors"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestSpanCountersAndLabels exercises the accumulation API and the
// annotation rendering, including the _ns-suffix duration convention.
func TestSpanCountersAndLabels(t *testing.T) {
	s := NewSpan("ModelJoin m [cpu]")
	s.AddWall(1500 * time.Microsecond)
	s.AddRows(600)
	s.AddBatches(3)
	s.SetLabel("cache", "hit")
	s.Counter("infer_ns").Store(int64(250 * time.Microsecond))
	s.Counter("sgemm_flops").Store(1 << 20)

	if s.Wall() != 1500*time.Microsecond || s.Rows() != 600 || s.Batches() != 3 {
		t.Fatalf("totals wrong: wall=%v rows=%d batches=%d", s.Wall(), s.Rows(), s.Batches())
	}
	if s.Label("cache") != "hit" {
		t.Fatalf("label = %q", s.Label("cache"))
	}
	// Counter resolves to the same cell on repeat lookups.
	s.Counter("sgemm_flops").Add(1)
	if got := s.Counter("sgemm_flops").Load(); got != 1<<20+1 {
		t.Fatalf("counter = %d", got)
	}

	ann := s.annotations()
	for _, want := range []string{"time=1.50ms", "rows=600", "batches=3", "cache=hit", "infer=250.0µs", "sgemm_flops="} {
		if !strings.Contains(ann, want) {
			t.Errorf("annotations missing %q: %s", want, ann)
		}
	}
}

// TestConcurrentSpanMutation races adds from many goroutines into one span
// — the partition-parallel execution pattern. Totals must be exact.
func TestConcurrentSpanMutation(t *testing.T) {
	s := NewSpan("Scan t")
	ctr := s.Counter("pruned_blocks")
	const workers = 8
	const per = 5000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				s.AddWall(time.Nanosecond)
				s.AddRows(2)
				ctr.Add(1)
				s.SetLabel("device", "cpu")
			}
		}()
	}
	wg.Wait()
	if s.Wall() != workers*per {
		t.Errorf("wall = %v", s.Wall())
	}
	if s.Rows() != 2*workers*per {
		t.Errorf("rows = %d", s.Rows())
	}
	if ctr.Load() != workers*per {
		t.Errorf("counter = %d", ctr.Load())
	}
}

// TestRenderTree checks the indented EXPLAIN ANALYZE layout and the
// summary line, including error outcomes.
func TestRenderTree(t *testing.T) {
	qt := NewQueryTrace("SELECT 1")
	root := NewSpan("Project x")
	qt.Root = root
	child := root.NewChild("Scan t")
	child.AddRows(10)
	qt.Finish(nil)

	out := qt.Render()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 3 {
		t.Fatalf("want 3 lines, got %d:\n%s", len(lines), out)
	}
	if !strings.HasPrefix(lines[0], "Project x") {
		t.Errorf("root line: %q", lines[0])
	}
	if !strings.HasPrefix(lines[1], "  -> Scan t") {
		t.Errorf("child line: %q", lines[1])
	}
	if !strings.HasPrefix(lines[2], "Total: ") {
		t.Errorf("summary line: %q", lines[2])
	}

	qerr := NewQueryTrace("SELECT broken")
	qerr.Finish(errors.New("boom"))
	if out := qerr.Render(); !strings.Contains(out, "(error: boom)") {
		t.Errorf("error outcome not rendered: %s", out)
	}
}

// TestFinishFirstCallWins: the statement clock stops once.
func TestFinishFirstCallWins(t *testing.T) {
	qt := NewQueryTrace("SELECT 1")
	qt.Finish(nil)
	total := qt.Total()
	if total <= 0 {
		t.Fatal("total not recorded")
	}
	time.Sleep(2 * time.Millisecond)
	qt.Finish(errors.New("late"))
	if qt.Total() != total {
		t.Error("second Finish changed the total")
	}
	if qt.Err() != nil {
		t.Error("second Finish changed the outcome")
	}
}

// TestJSONForm checks the compact slow-query-log record.
func TestJSONForm(t *testing.T) {
	qt := NewQueryTrace("SELECT id FROM t")
	root := NewSpan("Scan t")
	root.AddRows(5)
	root.AddWall(time.Millisecond)
	root.SetLabel("cache", "miss")
	root.Counter("build_ns").Store(42)
	qt.Root = root
	qt.Finish(nil)

	b, err := json.Marshal(qt)
	if err != nil {
		t.Fatal(err)
	}
	var rec struct {
		SQL     string `json:"sql"`
		TotalNS int64  `json:"total_ns"`
		Plan    struct {
			Op       string            `json:"op"`
			Rows     int64             `json:"rows"`
			Labels   map[string]string `json:"labels"`
			Counters map[string]int64  `json:"counters"`
		} `json:"plan"`
	}
	if err := json.Unmarshal(b, &rec); err != nil {
		t.Fatal(err)
	}
	if rec.SQL != "SELECT id FROM t" || rec.TotalNS <= 0 {
		t.Errorf("record header wrong: %+v", rec)
	}
	if rec.Plan.Op != "Scan t" || rec.Plan.Rows != 5 {
		t.Errorf("plan wrong: %+v", rec.Plan)
	}
	if rec.Plan.Labels["cache"] != "miss" || rec.Plan.Counters["build_ns"] != 42 {
		t.Errorf("labels/counters wrong: %+v", rec.Plan)
	}
}

// TestAdoptGraftsSubtree: adopted subtrees appear in Render, Stat and the
// JSON form after Children, and Adopt is safe against concurrent walkers —
// the graft pattern used to stitch remote shard fragments.
func TestAdoptGraftsSubtree(t *testing.T) {
	qt := NewQueryTrace("SELECT * FROM t")
	root := NewSpan("RemoteExchange")
	qt.Root = root
	src := root.NewChild("shard 0 (127.0.0.1:1)")

	remote := NewSpan("Scan t")
	remote.AddRows(7)
	remote.SetLabel("cache", "hit")
	src.Adopt(remote)
	src.Adopt(nil) // nil graft is a no-op

	out := qt.Render()
	for _, want := range []string{"RemoteExchange", "-> shard 0", "    -> Scan t", "rows=7", "cache=hit"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
	st := src.Stat()
	if len(st.Children) != 1 || st.Children[0].Name != "Scan t" || st.Children[0].Rows != 7 {
		t.Fatalf("Stat did not include adopted subtree: %+v", st)
	}
	j := src.toJSON()
	if len(j.Children) != 1 || j.Children[0].Op != "Scan t" {
		t.Fatalf("toJSON did not include adopted subtree: %+v", j)
	}

	// Concurrent Adopt vs. concurrent Stat/Render must be race-clean (run
	// under -race): live Progress sampling walks the tree while fragments
	// finish and graft.
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				src.Adopt(NewSpan("late"))
			}
		}()
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				_ = src.Stat()
				_ = qt.Render()
			}
		}()
	}
	wg.Wait()
}

// TestEncodeDecodeSpanRoundTrip: the wire-trailer serialization reproduces
// the full subtree — totals, labels, counters, nesting — so the stitched
// EXPLAIN ANALYZE renders remote annotations verbatim.
func TestEncodeDecodeSpanRoundTrip(t *testing.T) {
	root := NewSpan("Finalize")
	root.AddWall(3 * time.Millisecond)
	root.AddRows(100)
	root.AddBatches(2)
	scan := root.NewChild("Scan events")
	scan.AddRows(1000)
	scan.SetLabel("pruned", "3/8")
	scan.Counter("pruned_blocks").Store(3)
	mj := root.NewChild("ModelJoin m [cpu]")
	mj.SetLabel("cache", "hit")
	mj.Counter("sgemm_ns").Store(int64(250 * time.Microsecond))
	mj.Counter("sgemm_flops").Store(1 << 20)

	data, err := EncodeSpan(root)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeSpan(data)
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != "Finalize" || got.Wall() != 3*time.Millisecond || got.Rows() != 100 || got.Batches() != 2 {
		t.Fatalf("root round trip wrong: %+v", got.Stat())
	}
	if len(got.Children) != 2 {
		t.Fatalf("children = %d, want 2", len(got.Children))
	}
	gs, gm := got.Children[0], got.Children[1]
	if gs.Name != "Scan events" || gs.Rows() != 1000 || gs.Label("pruned") != "3/8" ||
		gs.Counter("pruned_blocks").Load() != 3 {
		t.Fatalf("scan child wrong: %+v", gs.Stat())
	}
	if gm.Label("cache") != "hit" || gm.Counter("sgemm_flops").Load() != 1<<20 {
		t.Fatalf("modeljoin child wrong: %+v", gm.Stat())
	}
	// Re-rendered annotations carry the remote counters (with the _ns
	// duration convention intact).
	if ann := gm.annotations(); !strings.Contains(ann, "sgemm=250.0µs") || !strings.Contains(ann, "sgemm_flops=1048576") {
		t.Fatalf("re-rendered annotations wrong: %s", ann)
	}

	// Encode/Decode of nothing are clean no-ops.
	if b, err := EncodeSpan(nil); err != nil || b != nil {
		t.Fatalf("EncodeSpan(nil) = %v/%v", b, err)
	}
	if s, err := DecodeSpan(nil); err != nil || s != nil {
		t.Fatalf("DecodeSpan(nil) = %v/%v", s, err)
	}
	if _, err := DecodeSpan([]byte("{not json")); err == nil {
		t.Fatal("corrupt payload accepted")
	}
}

// FuzzDecodeSpan feeds DecodeSpan — the decoder of the MsgTrace trailer a
// coordinator reads from each shard — arbitrary bytes. It must not panic,
// and a tree it accepts must survive encode → decode unchanged at Stat()
// level. The seed corpus is under testdata/fuzz/FuzzDecodeSpan.
func FuzzDecodeSpan(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := DecodeSpan(data)
		if err != nil || s == nil {
			return
		}
		enc, err := EncodeSpan(s)
		if err != nil {
			t.Fatalf("re-encoding a decoded span: %v", err)
		}
		again, err := DecodeSpan(enc)
		if err != nil {
			t.Fatalf("decoding %q: %v", enc, err)
		}
		if got, want := again.Stat(), s.Stat(); !reflect.DeepEqual(got, want) {
			t.Fatalf("round trip changed the tree:\n got %+v\nwant %+v", got, want)
		}
	})
}

// TestFmtDuration pins the compact duration format used in rendered plans.
func TestFmtDuration(t *testing.T) {
	cases := []struct {
		d    time.Duration
		want string
	}{
		{500 * time.Nanosecond, "500ns"},
		{45600 * time.Nanosecond, "45.6µs"},
		{1230 * time.Microsecond, "1.23ms"},
		{7890 * time.Millisecond, "7.89s"},
	}
	for _, c := range cases {
		if got := fmtDuration(c.d); got != c.want {
			t.Errorf("fmtDuration(%v) = %q, want %q", c.d, got, c.want)
		}
	}
}
