// Command benchmark is the repository's one benchmark: five workloads that
// stress different layers of the in-database ML stack, six end-to-end metrics
// a caller of the database sees, and a per-layer ledger from a traced second
// pass. README.md explains the workloads, the metrics and how to run it;
// BENCHMARK.json at the root of the repository is its manifest.
//
//	go run ./benchmark                        every workload, untraced then traced
//	go run ./benchmark -workload mj_wide      one workload, end-to-end metrics
//	go run ./benchmark -workload mj_wide -trace 1   its per-layer ledger
//	go run ./benchmark -compare old.json new.json
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

func main() {
	// Before Go 1.25 GOMAXPROCS ignores a container's CPU quota; pin it to
	// the sandbox's two cores so a run means the same on a larger host.
	runtime.GOMAXPROCS(parallelism)

	var cfg config
	flag.StringVar(&cfg.workload, "workload", "", "workload to run (default: every workload, each in its own process)")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed of the generated inputs: model weights, fact values, edit sequence")
	flag.Float64Var(&cfg.seconds, "seconds", runSeconds, "how long one run measures")
	flag.IntVar(&cfg.ops, "ops", 0, "fixed operations per caller instead of -seconds (program-side counts then repeat exactly)")
	flag.IntVar(&cfg.warmup, "warmup", 5, "warm-up operations per caller")
	trace := flag.Int("trace", 0, "0: end-to-end metrics from an untraced run; 1: per-layer metrics from a traced run")
	flag.StringVar(&cfg.outDir, "out", filepath.Join("benchmark", "out"), "directory for result.json and trace-<workload>.json")
	runs := flag.Int("runs", 1, "without -workload: untraced runs per workload, on seeds seed, seed+1, ...")
	compare := flag.Bool("compare", false, "compare two result files: -compare old.json new.json")
	flag.Parse()
	cfg.trace = *trace != 0

	var err error
	switch {
	case *compare:
		if flag.NArg() != 2 {
			err = fmt.Errorf("usage: -compare old.json new.json")
			break
		}
		var regressed bool
		if regressed, err = compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1)); err == nil && regressed {
			os.Exit(1)
		}
	case cfg.seconds <= 0 || *runs < 1:
		err = fmt.Errorf("-seconds and -runs must be positive")
	case cfg.workload != "":
		err = runOne(cfg)
	default:
		err = runAll(cfg, *runs)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(2)
	}
}

// runOne runs one workload in this process, prints its metrics by name and
// ends with the result object on the last line.
func runOne(cfg config) error {
	res, err := runWorkload(cfg)
	if err != nil {
		return err
	}
	fmt.Printf("workload %s seed %d: attempted %d, failed %d\n", cfg.workload, cfg.seed, res.Attempted, res.Failed)
	printMetrics(res.Metrics)
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

func printMetrics(m map[string]metricValue) {
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Printf("  %-32s %14.4f %s\n", name, m[name].Value, m[name].Unit)
	}
}

// resultFile is what a full run writes and -compare reads: the baseline later
// changes are held against.
type resultFile struct {
	GitSHA         string           `json:"git_sha"`
	GeneratedAtUTC string           `json:"generated_at_utc"`
	GoVersion      string           `json:"go_version"`
	NumCPU         int              `json:"nproc"`
	GOMAXPROCS     int              `json:"gomaxprocs"`
	Seed           int64            `json:"seed"`
	Runs           int              `json:"runs"`
	Seconds        float64          `json:"seconds"`
	Ops            int              `json:"ops,omitempty"`
	Warmup         int              `json:"warmup"`
	Workloads      []workloadResult `json:"workloads"`
}

type workloadResult struct {
	Name      string `json:"name"`
	Callers   int    `json:"callers"`
	Attempted int    `json:"attempted"`
	Failed    int    `json:"failed"`
	// EndToEnd holds, per metric, the value of every untraced run.
	EndToEnd map[string]series `json:"end_to_end"`
	// PerLayer is the ledger of the one traced run.
	PerLayer map[string]metricValue `json:"per_layer"`
}

type series struct {
	Unit   string    `json:"unit"`
	Median float64   `json:"median"`
	Spread float64   `json:"spread"` // interquartile range over median
	Values []float64 `json:"values"`
}

// runAll runs every workload in a process of its own — so heap state does
// not leak from one to the next — runs times untraced and once traced, prints
// every metric and writes the result file.
func runAll(cfg config, runs int) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	file := resultFile{
		GitSHA:         gitSHA(),
		GeneratedAtUTC: time.Now().UTC().Format(time.RFC3339),
		GoVersion:      runtime.Version(),
		NumCPU:         runtime.NumCPU(),
		GOMAXPROCS:     runtime.GOMAXPROCS(0),
		Seed:           cfg.seed,
		Runs:           runs,
		Seconds:        cfg.seconds,
		Ops:            cfg.ops,
		Warmup:         cfg.warmup,
	}
	child := func(w string, seed int64, trace int) (runResult, error) {
		// A run takes set-up plus -seconds; the driver's own limit is 180 s.
		ctx, cancel := context.WithTimeout(context.Background(), 180*time.Second)
		defer cancel()
		cmd := exec.CommandContext(ctx, self,
			"-workload", w, "-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(cfg.seconds),
			"-ops", fmt.Sprint(cfg.ops), "-warmup", fmt.Sprint(cfg.warmup),
			"-trace", fmt.Sprint(trace), "-out", cfg.outDir)
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		if err != nil {
			return runResult{}, fmt.Errorf("workload %s: %w", w, err)
		}
		lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
		var res runResult
		if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
			return runResult{}, fmt.Errorf("workload %s: result line: %w", w, err)
		}
		return res, nil
	}
	for _, w := range workloads {
		wr := workloadResult{Name: w.name, Callers: w.callers, EndToEnd: make(map[string]series)}
		for r := 0; r < runs; r++ {
			res, err := child(w.name, cfg.seed+int64(r), 0)
			if err != nil {
				return err
			}
			wr.Attempted += res.Attempted
			wr.Failed += res.Failed
			for name, v := range res.Metrics {
				s := wr.EndToEnd[name]
				s.Unit = v.Unit
				s.Values = append(s.Values, v.Value)
				wr.EndToEnd[name] = s
			}
		}
		for name, s := range wr.EndToEnd {
			s.Median, s.Spread = median(s.Values), spread(s.Values)
			wr.EndToEnd[name] = s
		}
		res, err := child(w.name, cfg.seed, 1)
		if err != nil {
			return err
		}
		wr.Attempted += res.Attempted
		wr.Failed += res.Failed
		wr.PerLayer = res.Metrics
		file.Workloads = append(file.Workloads, wr)

		fmt.Printf("%s (%d caller(s), %d run(s)): attempted %d, failed %d\n", w.name, w.callers, runs, wr.Attempted, wr.Failed)
		for _, d := range endToEnd {
			s := wr.EndToEnd[d.Name]
			fmt.Printf("  %-32s %14.4f %-8s spread %5.1f%% of bound %2.0f%%\n", d.Name, s.Median, s.Unit, 100*s.Spread, 100*d.Bound)
		}
		printMetrics(wr.PerLayer)
	}
	out, err := json.MarshalIndent(file, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(cfg.outDir, "result.json")
	if err := os.WriteFile(path, append(out, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Println("wrote", path)
	for _, wr := range file.Workloads {
		if wr.Failed > 0 {
			return fmt.Errorf("workload %s: %d of %d operations failed", wr.Name, wr.Failed, wr.Attempted)
		}
	}
	return nil
}

// gitSHA stamps a result file with the commit it measured, marked -dirty when
// the working tree differs from it ("" outside a checkout with git).
func gitSHA() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return ""
	}
	sha := strings.TrimSpace(string(out))
	if status, err := exec.Command("git", "status", "--porcelain").Output(); err == nil && len(status) > 0 {
		sha += "-dirty"
	}
	return sha
}
