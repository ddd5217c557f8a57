package bench

import (
	"bytes"
	"strings"
	"testing"
)

// testRunner scales the harness down for unit-test latency.
func testRunner() *Runner {
	r := NewRunner()
	r.Partitions = 4
	r.Parallelism = 4
	r.MeterMemory = false
	// Keep ML-To-SQL cells test-sized (the quadratic intermediate volume of
	// large dense models is the paper's point, not something to wait for).
	r.MLToSQLCellLimit = 40_000_000
	return r
}

func TestRunDenseAllApproaches(t *testing.T) {
	r := testRunner()
	for _, a := range AllApproaches {
		m, err := r.RunDense(a, 8, 2, 3000)
		if err != nil {
			t.Fatalf("%s: %v", a, err)
		}
		if m.Rows != 3000 {
			t.Errorf("%s produced %d rows", a, m.Rows)
		}
		if m.Reported <= 0 {
			t.Errorf("%s reported non-positive time %v", a, m.Reported)
		}
		if (a == ModelJoinGPU || a == TFCAPIGPU || a == TFPythonGPU) != m.Simulated {
			t.Errorf("%s simulated flag = %v", a, m.Simulated)
		}
	}
}

// TestGPUReportedTimeCoversModeledTime: with eight partition goroutines
// emulating device work at once, the reported time is still the host-only
// share of the run plus the modeled device time — never less than the
// modeled time alone (the Fig. 8 width-128 non-monotonic cells).
func TestGPUReportedTimeCoversModeledTime(t *testing.T) {
	r := testRunner()
	r.Partitions, r.Parallelism = 8, 8
	for _, a := range []Approach{ModelJoinGPU, TFCAPIGPU} {
		m, err := r.RunDense(a, 128, 4, 8000)
		if err != nil {
			t.Fatalf("%s: %v", a, err)
		}
		if m.ModeledTime <= 0 || m.Reported <= m.ModeledTime {
			t.Errorf("%s: reported %v, modeled %v; want reported > modeled > 0 (wall %v)",
				a, m.Reported, m.ModeledTime, m.Wall)
		}
	}
}

func TestRunLSTMAllApproaches(t *testing.T) {
	r := testRunner()
	for _, a := range AllApproaches {
		m, err := r.RunLSTM(a, 8, 2000)
		if err != nil {
			t.Fatalf("%s: %v", a, err)
		}
		if m.Rows != 2000 {
			t.Errorf("%s produced %d rows", a, m.Rows)
		}
	}
}

func TestMLToSQLSkipLimit(t *testing.T) {
	r := testRunner()
	r.MLToSQLCellLimit = 10
	m, err := r.RunDense(MLToSQL, 32, 4, 3000)
	if err != nil {
		t.Fatal(err)
	}
	if m.Skipped == "" {
		t.Error("expected skip above cell limit")
	}
}

func TestFigure8SmokeAndShape(t *testing.T) {
	if testing.Short() {
		t.Skip("harness smoke test is slow")
	}
	r := testRunner()
	var buf bytes.Buffer
	ms, err := r.Figure8(Figure8Config{
		Widths: []int{16}, Depths: []int{2}, Sizes: []int{2000, 6000},
		Approaches: AllApproaches,
	}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != 2*len(AllApproaches) {
		t.Fatalf("got %d measurements", len(ms))
	}
	out := buf.String()
	if !strings.Contains(out, "Figure 8") || !strings.Contains(out, "ModelJoin_CPU") {
		t.Errorf("output malformed:\n%s", out)
	}
}

func TestTable3Smoke(t *testing.T) {
	if testing.Short() {
		t.Skip("harness smoke test is slow")
	}
	r := testRunner()
	var buf bytes.Buffer
	ms, err := r.Table3(5000, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != len(Table3Models)*len(Table3Approaches) {
		t.Fatalf("got %d measurements", len(ms))
	}
	if !strings.Contains(buf.String(), "Dense(512,4)") {
		t.Errorf("output malformed:\n%s", buf.String())
	}
}

func TestFormatBytes(t *testing.T) {
	tests := []struct {
		in   int64
		want string
	}{
		{512, "512 B"},
		{2048, "2.0 KB"},
		{109 << 20, "109.0 MB"},
		{3 << 30, "3.00 GB"},
		{20 << 30, "20.0 GB"},
	}
	for _, tc := range tests {
		if got := FormatBytes(tc.in); got != tc.want {
			t.Errorf("FormatBytes(%d) = %q, want %q", tc.in, got, tc.want)
		}
	}
}

// TestRelativeOrdering checks the paper's headline result at small scale:
// in-engine native integrations (ModelJoin, C-API) beat the export-based
// TF(Python) baseline on CPU.
func TestRelativeOrdering(t *testing.T) {
	if testing.Short() {
		t.Skip("timing-sensitive")
	}
	r := testRunner()
	const tuples = 60_000
	mj, err := r.RunDense(ModelJoinCPU, 32, 2, tuples)
	if err != nil {
		t.Fatal(err)
	}
	capi, err := r.RunDense(TFCAPICPU, 32, 2, tuples)
	if err != nil {
		t.Fatal(err)
	}
	py, err := r.RunDense(TFPythonCPU, 32, 2, tuples)
	if err != nil {
		t.Fatal(err)
	}
	if py.Reported < mj.Reported {
		t.Errorf("TF(Python) %v unexpectedly faster than ModelJoin %v", py.Reported, mj.Reported)
	}
	if py.Reported < capi.Reported {
		t.Errorf("TF(Python) %v unexpectedly faster than TF(C-API) %v", py.Reported, capi.Reported)
	}
}
