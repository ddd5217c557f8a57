package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// Verdicts of one workload × end-to-end metric pairing.
const (
	verdictOK         = "ok"
	verdictRegressed  = "regressed"  // the new median is worse than the old by more than the bound
	verdictUnresolved = "unresolved" // either side's run-to-run spread is wider than the bound
)

// verdict judges new against old for one metric. worse is the share of the
// old median by which the new one is worse (negative when it is better).
func verdict(d metricDef, old, cur series) (worse float64, v string) {
	if old.Median != 0 {
		worse = (cur.Median - old.Median) / old.Median
		if d.Better == "higher" {
			worse = -worse
		}
	}
	switch {
	case old.Spread > d.Bound || cur.Spread > d.Bound:
		return worse, verdictUnresolved
	case worse > d.Bound:
		return worse, verdictRegressed
	}
	return worse, verdictOK
}

func readResult(path string) (resultFile, error) {
	var f resultFile
	raw, err := os.ReadFile(path)
	if err != nil {
		return f, err
	}
	if err := json.Unmarshal(raw, &f); err != nil {
		return f, fmt.Errorf("%s: %w", path, err)
	}
	return f, nil
}

// compareFiles prints one row per workload × end-to-end metric — both
// medians, the ratio with its base and a verdict — and reports whether any
// pairing regressed. A workload or metric missing from the new file, or with
// failed operations there, misses every bound.
func compareFiles(w io.Writer, oldPath, newPath string) (regressed bool, err error) {
	old, err := readResult(oldPath)
	if err != nil {
		return false, err
	}
	cur, err := readResult(newPath)
	if err != nil {
		return false, err
	}
	// -warmup is inside setup_s and -seconds / -ops size every sample: files
	// measured under different settings do not compare.
	if old.Seconds != cur.Seconds || old.Ops != cur.Ops || old.Warmup != cur.Warmup {
		return false, fmt.Errorf("settings differ: %s has -seconds %v -ops %d -warmup %d, %s has -seconds %v -ops %d -warmup %d",
			oldPath, old.Seconds, old.Ops, old.Warmup, newPath, cur.Seconds, cur.Ops, cur.Warmup)
	}
	byName := make(map[string]workloadResult)
	for _, wr := range cur.Workloads {
		byName[wr.Name] = wr
	}
	fmt.Fprintf(w, "old %s (%s, %d run(s))  new %s (%s, %d run(s))\n", oldPath, old.GitSHA, old.Runs, newPath, cur.GitSHA, cur.Runs)
	fmt.Fprintf(w, "%-16s %-16s %12s %12s  %-22s %6s %7s %7s  %s\n",
		"workload", "metric", "old median", "new median", "new/old", "bound", "spr old", "spr new", "verdict")
	for _, ow := range old.Workloads {
		nw, ok := byName[ow.Name]
		for _, d := range endToEnd {
			os, hasOld := ow.EndToEnd[d.Name]
			if !hasOld {
				continue
			}
			ns, hasNew := nw.EndToEnd[d.Name]
			worse, v := verdict(d, os, ns)
			if !ok || !hasNew || nw.Failed > 0 {
				v = verdictRegressed
			}
			regressed = regressed || v == verdictRegressed
			ratio := "n/a"
			if os.Median != 0 {
				ratio = fmt.Sprintf("%.3f of %.4g %s", ns.Median/os.Median, os.Median, os.Unit)
			}
			change := fmt.Sprintf("%.1f%% worse", 100*worse)
			if worse < 0 {
				change = fmt.Sprintf("%.1f%% better", -100*worse)
			}
			fmt.Fprintf(w, "%-16s %-16s %12.4f %12.4f  %-22s %5.0f%% %6.1f%% %6.1f%%  %s (%s)\n",
				ow.Name, d.Name, os.Median, ns.Median, ratio, 100*d.Bound, 100*os.Spread, 100*ns.Spread, v, change)
		}
	}
	return regressed, nil
}
