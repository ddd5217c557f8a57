package main

import (
	"encoding/json"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"

	"indbml/internal/blas"
	"indbml/internal/workload"
)

// BENCHMARK.json at the root of the repository is written by hand; the names,
// units, directions and bounds in it must be the ones this program emits.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var m struct {
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metricDef `json:"end_to_end"`
		PerLayer   []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	if m.RunSeconds != runSeconds {
		t.Errorf("run_seconds %d, the program's default is %d", m.RunSeconds, runSeconds)
	}
	var names []string
	for _, w := range m.Workloads {
		names = append(names, w.Name)
		if w.Why == "" || len(w.Why) > 200 {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	var want []string
	for _, w := range workloads {
		want = append(want, w.name)
	}
	if !reflect.DeepEqual(names, want) {
		t.Errorf("workloads %v, the program runs %v", names, want)
	}
	if !reflect.DeepEqual(m.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs from metrics.go:\n%+v\n%+v", m.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(m.PerLayer, perLayer) {
		t.Errorf("per_layer differs from metrics.go:\n%+v\n%+v", m.PerLayer, perLayer)
	}
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

func checkMetrics(t *testing.T, res runResult, defs []metricDef) {
	t.Helper()
	if res.Failed != 0 || !res.Correct || res.Attempted < 1 {
		t.Errorf("attempted %d, failed %d, correct %v", res.Attempted, res.Failed, res.Correct)
	}
	for _, d := range defs {
		v, ok := res.Metrics[d.Name]
		switch {
		case !ok:
			t.Errorf("metric %s is declared but not emitted", d.Name)
		case math.IsNaN(v.Value) || math.IsInf(v.Value, 0):
			t.Errorf("metric %s = %v is not finite", d.Name, v.Value)
		case v.Unit != d.Unit:
			t.Errorf("metric %s has unit %q, declared %q", d.Name, v.Unit, d.Unit)
		}
	}
	if len(res.Metrics) != len(defs) {
		t.Errorf("%d metrics emitted, %d declared", len(res.Metrics), len(defs))
	}
	for name := range res.Metrics {
		if !metricName.MatchString(name) {
			t.Errorf("metric name %q is not made of letters, digits, _ . -", name)
		}
	}
}

// TestSmoke runs every workload for two operations, untraced and traced.
func TestSmoke(t *testing.T) {
	for _, w := range workloads {
		w := w
		t.Run(w.name, func(t *testing.T) {
			dir := t.TempDir()
			cfg := config{workload: w.name, seed: 1, ops: 2, warmup: 1, seconds: 1, outDir: dir}
			res, err := runWorkload(cfg)
			if err != nil {
				t.Fatal(err)
			}
			checkMetrics(t, res, endToEnd)
			for _, d := range endToEnd {
				if res.Metrics[d.Name].Value <= 0 {
					t.Errorf("end-to-end metric %s = %v, must never be 0", d.Name, res.Metrics[d.Name].Value)
				}
			}

			cfg.trace = true
			res, err = runWorkload(cfg)
			if err != nil {
				t.Fatal(err)
			}
			checkMetrics(t, res, perLayer)
			ratio, misses := res.Metrics["db.model_cache_hit_ratio"].Value, res.Metrics["db.model_cache_misses"].Value
			switch w.name {
			case "mj_wide":
				if ratio != 1 {
					t.Errorf("mj_wide runs on a cached model: hit ratio %v, want exactly 1", ratio)
				}
			case "mj_model_update":
				if ratio != 0 || misses != 1 {
					t.Errorf("every update must miss the cache once: hit ratio %v, misses per op %v", ratio, misses)
				}
			}

			raw, err := os.ReadFile(filepath.Join(dir, "trace-"+w.name+".json"))
			if err != nil {
				t.Fatal(err)
			}
			var ledger struct {
				Spans   []span     `json:"spans"`
				Program []progSpan `json:"program"`
			}
			if err := json.Unmarshal(raw, &ledger); err != nil {
				t.Fatalf("span file does not parse: %v", err)
			}
			if len(ledger.Spans) == 0 || len(ledger.Program) == 0 {
				t.Fatalf("span file holds %d spans and %d program spans", len(ledger.Spans), len(ledger.Program))
			}
			for _, s := range ledger.Spans {
				root := s.Name == spanOp || s.Name == spanSetup || s.Name == spanReplay
				switch {
				case s.EndNS < s.StartNS:
					t.Errorf("span %d (%s) ends before it starts", s.ID, s.Name)
				case root != (s.Parent == -1):
					t.Errorf("span %d (%s) has parent %d", s.ID, s.Name, s.Parent)
				case !root && (s.Parent < 0 || s.Parent >= len(ledger.Spans) || ledger.Spans[s.Parent].Op != s.Op):
					t.Errorf("span %d (%s) has no parent in its own operation", s.ID, s.Name)
				}
			}
		})
	}
}

// The oracle must flag a perturbed prediction and a stale model.
func TestOracleFlagsWrongResults(t *testing.T) {
	_, feats := workload.IrisTable("fact", 300, 1)
	m := newModel(1, 32, 2)
	o := newOracle(m, feats)
	if math.Abs(o.avg) < 0.01 {
		t.Fatalf("reference average %v is too close to 0 for an absolute tolerance to mean anything", o.avg)
	}
	if err := o.checkAgg(300, o.avg); err != nil {
		t.Errorf("reference result rejected: %v", err)
	}
	if o.checkAgg(300, o.avg+2*tolerance) == nil || o.checkAgg(299, o.avg) == nil {
		t.Error("perturbed aggregate accepted")
	}
	full := func(perturb int) error {
		c := o.rows(true)
		for id, p := range o.pred {
			if id == perturb {
				p += 2 * tolerance
			}
			c.add(int64(id), float64(p))
		}
		return c.done()
	}
	if err := full(-1); err != nil {
		t.Errorf("reference rows rejected: %v", err)
	}
	if full(17) == nil {
		t.Error("perturbed prediction accepted")
	}
	dup := o.rows(true)
	for range o.pred {
		dup.add(0, float64(o.pred[0]))
	}
	if dup.done() == nil {
		t.Error("a result returning one id 300 times accepted")
	}

	// A stale mj_model_update result: the aggregate of the model as it was
	// before the edit.
	e, err := newEditOracle(newModel(1, 32, 2), feats)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 20; i++ {
		stale := e.avg()
		unit, w := e.nextEdit(rng)
		e.apply(unit, w)
		if e.checkAgg(300, stale, false) == nil {
			t.Fatalf("edit %d: stale aggregate %v accepted against %v", i, stale, e.avg())
		}
		if err := e.checkAgg(300, e.avg(), true); err != nil {
			t.Fatalf("edit %d: the shortcut reference disagrees with the forward pass: %v", i, err)
		}
	}
}

// Every seed is another function, and every seed switches off exactly half of
// each hidden layer on every row: the work blas.Sgemm's zero-skip leaves does
// not depend on the seed.
func TestSeedsVaryTheModelNotTheWork(t *testing.T) {
	_, feats := workload.IrisTable("fact", 150, 1)
	a, b := newOracle(newModel(1, 64, 3), feats), newOracle(newModel(2, 64, 3), feats)
	if math.Abs(a.avg-b.avg) < 100*tolerance {
		t.Errorf("seeds 1 and 2 predict the same average %v", a.avg)
	}
	for seed := int64(1); seed <= 3; seed++ {
		m := newModel(seed, 64, 3)
		act := blas.NewMat(len(feats), len(feats[0]))
		for i, r := range feats {
			copy(act.Row(i), r)
		}
		for li, l := range m.Layers[:len(m.Layers)-1] {
			act = l.Forward(act)
			for r := 0; r < act.Rows; r++ {
				on := 0
				for _, v := range act.Row(r) {
					if v != 0 {
						on++
					}
				}
				if on != act.Cols/2 {
					t.Fatalf("seed %d layer %d row %d: %d of %d units active, want half", seed, li, r, on, act.Cols)
				}
			}
		}
	}
}

// Quartiles follow Python's statistics.quantiles(v, n=4).
func TestQuartiles(t *testing.T) {
	for _, c := range []struct {
		v      []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{5, 1, 4, 2, 3}, 1.5, 4.5},
		{[]float64{7}, 7, 7},
	} {
		q1, q3 := quartiles(c.v)
		if q1 != c.q1 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.v, q1, q3, c.q1, c.q3)
		}
	}
}

func TestCompareVerdicts(t *testing.T) {
	mk := func(p50 []float64) resultFile {
		return resultFile{Runs: len(p50), Workloads: []workloadResult{{
			Name: "mj_wide", Attempted: 10,
			EndToEnd: map[string]series{"op_p50_ms": {Unit: "ms", Median: median(p50), Spread: spread(p50), Values: p50}},
		}}}
	}
	write := func(name string, f resultFile) string {
		path := filepath.Join(t.TempDir(), name)
		raw, _ := json.Marshal(f)
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := write("old.json", mk([]float64{100, 101, 99, 100, 102}))
	other := mk([]float64{100, 101, 99, 100, 102})
	other.Warmup = 1
	if _, err := compareFiles(io.Discard, base, write("warmup.json", other)); err == nil {
		t.Error("files measured with different -warmup compared")
	}
	for _, c := range []struct {
		name      string
		cur       []float64
		verdict   string
		regressed bool
	}{
		{"same", []float64{101, 100, 99, 103, 100}, verdictOK, false},
		{"faster", []float64{80, 81, 79, 80, 82}, verdictOK, false},
		{"slower", []float64{130, 131, 129, 130, 132}, verdictRegressed, true},
		{"noisy", []float64{100, 160, 70, 130, 100}, verdictUnresolved, false},
	} {
		var out strings.Builder
		regressed, err := compareFiles(&out, base, write(c.name+".json", mk(c.cur)))
		if err != nil {
			t.Fatal(err)
		}
		if regressed != c.regressed || !strings.Contains(out.String(), c.verdict+" (") {
			t.Errorf("%s: regressed %v, want %v and verdict %q:\n%s", c.name, regressed, c.regressed, c.verdict, out.String())
		}
	}
}
