package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"syscall"
	"time"

	"indbml/internal/blas"
	"indbml/internal/engine/db"
	"indbml/internal/engine/vector"
	"indbml/internal/nn"
	"indbml/internal/wire"
)

// config is one run of one workload.
type config struct {
	workload string
	seed     int64
	// seconds bounds the measured phase by time; ops, when positive, fixes
	// the operation count per caller instead, so that program-side counts
	// repeat exactly.
	seconds float64
	ops     int
	warmup  int // warm-up operations per caller, inside set-up
	trace   bool
	outDir  string // where the traced run writes trace-<workload>.json
}

// setups is how many times a run sets the environment up; setup_s is their
// median. It is not a setting: setup_s means the same in every result file.
const setups = 3

// metricValue is one reported number with its unit.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runResult is the last line a run prints: the contract with the driver.
type runResult struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// limit ends a phase: after a fixed number of operations per caller, or at a
// deadline once a minimum has run.
type limit struct {
	ops      int
	minOps   int
	deadline time.Time
}

func (l limit) done(i int) bool {
	if l.ops > 0 {
		return i >= l.ops
	}
	return i >= l.minOps && !time.Now().Before(l.deadline)
}

func (c config) limit(share float64, minOps int) limit {
	if c.ops > 0 {
		return limit{ops: c.ops}
	}
	return limit{minOps: minOps, deadline: time.Now().Add(time.Duration(share * c.seconds * float64(time.Second)))}
}

// phase is what one closed-loop measurement yields.
type phase struct {
	lat       []float64 // latency of every successful operation, ms, ascending
	attempted int
	failed    int
	elapsed   time.Duration
	cpu       time.Duration // process user+sys
	mem       runtime.MemStats
}

func (p phase) ops() float64 { return float64(len(p.lat)) }

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// runPhase drives op from callers goroutines, each a closed loop, until lim
// ends it. op reports one operation's success; an operation that errors,
// fails its check or outlasts opTimeout is a failed one and contributes no
// latency. mem holds the deltas of the counters the metrics use.
func runPhase(callers int, lim limit, op func(ctx context.Context, caller int, full bool) error) phase {
	var p phase
	var before runtime.MemStats
	runtime.ReadMemStats(&before)
	cpu0 := cpuTime()
	start := time.Now()

	var mu sync.Mutex
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			var lat []float64
			failed := 0
			i := 0
			for ; !lim.done(i); i++ {
				ctx, cancel := context.WithTimeout(context.Background(), opTimeout)
				t0 := time.Now()
				err := op(ctx, c, i == 0)
				d := time.Since(t0)
				cancel()
				if err == nil && d > opTimeout {
					err = fmt.Errorf("took %v, over the %v limit", d, opTimeout)
				}
				if err != nil {
					if failed == 0 {
						fmt.Fprintf(os.Stderr, "benchmark: caller %d op %d failed: %v\n", c, i, err)
					}
					failed++
					continue
				}
				lat = append(lat, float64(d)/1e6)
			}
			mu.Lock()
			p.lat = append(p.lat, lat...)
			p.attempted += i
			p.failed += failed
			mu.Unlock()
		}(c)
	}
	wg.Wait()

	p.elapsed = time.Since(start)
	p.cpu = cpuTime() - cpu0
	runtime.ReadMemStats(&p.mem)
	p.mem.TotalAlloc -= before.TotalAlloc
	p.mem.Mallocs -= before.Mallocs
	p.mem.PauseTotalNs -= before.PauseTotalNs
	p.lat = sorted(p.lat)
	return p
}

// runWorkload sets the workload up, measures it and returns the metrics of
// the requested kind: end-to-end from an untraced run, per-layer from a
// traced one.
func runWorkload(cfg config) (runResult, error) {
	w, ok := findWorkload(cfg.workload)
	if !ok {
		return runResult{}, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	in, err := w.prepare(cfg.seed)
	if err != nil {
		return runResult{}, err
	}
	var rec *recorder
	if cfg.trace {
		rec = newRecorder()
	}

	// Set-up, several times over: a single set-up is too short to time
	// steadily. Each includes the warm-up that fills the model cache and
	// finishes lazy initialization; the last environment is the one measured.
	res := runResult{Metrics: make(map[string]metricValue)}
	var e env
	run := func(ctx context.Context, c int, full bool) error { return e.run(ctx, c, full, scope{}) }
	var setupS []float64
	for k := 0; k < setups; k++ {
		if e != nil {
			e.close()
		}
		runtime.GC()
		s := scope{rec: rec, op: -1, parent: rec.begin(spanSetup, -1, -1)}
		t0 := time.Now()
		if e, err = in.setup(s); err != nil {
			return runResult{}, fmt.Errorf("set-up: %w", err)
		}
		warm := runPhase(w.callers, limit{ops: cfg.warmup}, run)
		setupS = append(setupS, time.Since(t0).Seconds())
		rec.end(s.parent)
		res.Attempted += warm.attempted
		res.Failed += warm.failed
	}
	defer e.close()

	runtime.GC()
	if !cfg.trace {
		plain := runPhase(w.callers, cfg.limit(1, 1), run)
		res.Attempted += plain.attempted
		res.Failed += plain.failed
		endToEndMetrics(res.Metrics, median(setupS), plain)
	} else {
		// The traced run splits its time: 40% untraced, 40% traced, 20% on
		// the single-node baseline.
		var sampler heapSampler
		sampler.start()
		plain := runPhase(w.callers, cfg.limit(0.4, 1), run)
		peakHeap := sampler.stop()
		traced, err := runTraced(cfg, w, e, rec, plain, peakHeap, res.Metrics)
		if err != nil {
			return runResult{}, err
		}
		res.Attempted += plain.attempted + traced.attempted
		res.Failed += plain.failed + traced.failed
	}
	res.Correct = res.Failed == 0
	return res, nil
}

func endToEndMetrics(m map[string]metricValue, setupS float64, p phase) {
	set := func(name string, v float64) { m[name] = metricValue{v, unitOf(endToEnd, name)} }
	n := max(1, p.ops()) // 1 when every operation failed; the run is reported incorrect
	set("setup_s", setupS)
	set("op_p50_ms", percentile(p.lat, 50))
	set("op_p90_ms", percentile(p.lat, 90))
	set("ops_per_s", p.ops()/p.elapsed.Seconds())
	set("cpu_ms_per_op", float64(p.cpu)/1e6/n)
	set("alloc_mb_per_op", float64(p.mem.TotalAlloc)/1e6/n)
}

func unitOf(defs []metricDef, name string) string {
	for _, d := range defs {
		if d.Name == name {
			return d.Unit
		}
	}
	panic("benchmark: metric " + name + " is not declared in metrics.go")
}

// heapSampler polls the heap in use while a phase runs, for
// runtime.peak_heap_mb.
type heapSampler struct {
	quit chan struct{}
	done chan float64
}

func (h *heapSampler) start() {
	h.quit = make(chan struct{})
	h.done = make(chan float64, 1)
	go func() {
		var peak uint64
		var ms runtime.MemStats
		tick := time.NewTicker(100 * time.Millisecond)
		defer tick.Stop()
		for {
			runtime.ReadMemStats(&ms)
			peak = max(peak, ms.HeapInuse)
			select {
			case <-h.quit:
				h.done <- float64(peak) / 1e6
				return
			case <-tick.C:
			}
		}
	}()
}

// stop ends the sampler and returns the peak in MB.
func (h *heapSampler) stop() float64 {
	close(h.quit)
	return <-h.done
}

// cacheCounts sums the model artifact cache counters of every engine.
func cacheCounts(engines []*db.Database) (hits, misses uint64) {
	for _, d := range engines {
		st := d.ModelCacheStats()
		hits += st.Hits
		misses += st.Misses
	}
	return hits, misses
}

// lastBatchIDs remembers, per engine, the newest inference batch so far.
func lastBatchIDs(engines []*db.Database) []uint64 {
	ids := make([]uint64, len(engines))
	for i, d := range engines {
		for _, b := range d.InferSched().BatchSnapshot() {
			ids[i] = max(ids[i], b.ID)
		}
	}
	return ids
}

// runTraced is the second pass: the same operations with ledger spans and
// the program's span trees, then the single-node baseline and the replays of
// the wire codec and of Sgemm. It fills m with every per-layer metric.
func runTraced(cfg config, w workloadDef, e env, rec *recorder, plain phase, peakHeap float64, m map[string]metricValue) (phase, error) {
	engines := e.engines()
	hits0, misses0 := cacheCounts(engines)
	batch0 := lastBatchIDs(engines)

	traced := runPhase(w.callers, cfg.limit(0.4, 20), func(ctx context.Context, c int, full bool) error {
		op, root := rec.newOp()
		defer rec.end(root)
		return e.run(ctx, c, full, scope{rec: rec, op: op, parent: root})
	})
	n := traced.ops()
	if n == 0 {
		return traced, fmt.Errorf("every traced operation failed")
	}
	hits1, misses1 := cacheCounts(engines)

	set := func(name string, v float64) { m[name] = metricValue{v, unitOf(perLayer, name)} }
	for _, d := range perLayer {
		set(d.Name, 0)
	}
	perOp := func(ns int64) float64 { return float64(ns) / 1e6 / n }
	mean := func(name string) float64 { // mean duration of the spans called name, ms
		total, count := rec.spanNS(name)
		if count == 0 {
			return 0
		}
		return float64(total) / 1e6 / float64(count)
	}

	// Rows per inference batch, over the batches of the traced phase that the
	// scheduler's ring still holds.
	var batches, batchRows, batchReqs float64
	for i, d := range engines {
		for _, b := range d.InferSched().BatchSnapshot() {
			if b.ID > batch0[i] {
				batches++
				batchRows += float64(b.Rows)
				batchReqs += float64(b.Requests)
			}
		}
	}
	if batches > 0 {
		set("infersched.rows_per_batch", batchRows/batches)
		set("infersched.requests_per_batch", batchReqs/batches)
	}

	// The single-node embedded baseline and the wire codec replay, on the
	// workloads that cross the wire.
	var encodeMS, decodeMS float64
	if bl, ok := e.(baseliner); ok {
		result, err := bl.baseline(context.Background()) // builds the node on first use
		if err != nil {
			return traced, fmt.Errorf("baseline: %w", err)
		}
		base := runPhase(w.callers, cfg.limit(0.2, 10), func(ctx context.Context, _ int, _ bool) error {
			_, err := bl.baseline(ctx)
			return err
		})
		set(bl.overheadMetric(), percentile(plain.lat, 50)-percentile(base.lat, 50))
		root := rec.begin(spanReplay, -1, -1)
		replayWire(result, scope{rec: rec, op: -1, parent: root})
		rec.end(root)
		encodeMS, decodeMS = mean("wire.EncodeRow"), mean("wire.DecodeRow")
		set("wire.encode_ms", encodeMS)
		set("wire.decode_ms", decodeMS)
	}
	root := rec.begin(spanReplay, -1, -1)
	model, feats := e.sample()
	replay := scope{rec: rec, op: -1, parent: root}
	micro := replaySgemm(model, feats, false, replay)
	microDense := replaySgemm(model, feats, true, replay)
	rec.end(root)

	t := rec.foldProgram()
	counts := rec.counts
	resultRows := float64(counts["result_rows"]) / n

	parseMS := mean("sql.Parse")
	prepareMS := max(0, mean("db.QueryOpContext")-parseMS)
	updateMS := mean("db.ExecContext")
	set("sql.parse_ms", parseMS)
	set("sql.stmt_bytes", float64(counts["stmt_bytes"])/n)
	set("db.prepare_ms", prepareMS)
	set("db.model_cache_hits", float64(hits1-hits0)/n)
	set("db.model_cache_misses", float64(misses1-misses0)/n)
	if lookups := float64(hits1-hits0) + float64(misses1-misses0); lookups > 0 {
		set("db.model_cache_hit_ratio", float64(hits1-hits0)/lookups)
	}
	set("exec.scan_ms", perOp(t.scanNS))
	set("exec.join_ms", perOp(t.joinNS))
	set("exec.agg_ms", perOp(t.aggNS))
	set("exec.other_ms", perOp(t.otherNS))
	set("exec.scanned_mb", float64(t.scannedBytes)/1e6/n)
	set("exec.operator_rows", float64(t.operatorRows)/n)
	set("exec.result_rows", resultRows)
	if resultRows > 0 {
		set("exec.rows_per_result", float64(t.operatorRows)/n/resultRows)
	}
	set("storage.update_ms", updateMS)
	if ns, _ := rec.spanNS("table build"); ns > 0 {
		set("storage.load_rows_per_s", float64(counts["loaded_rows"])/(float64(ns)/1e9))
	}
	set("relmodel.export_ms", mean("db.RegisterModel"))
	set("mltosql.generate_ms", mean("mltosql.Generate"))
	set("modeljoin.build_ms", perOp(t.buildNS))
	set("modeljoin.infer_ms", perOp(t.inferNS))
	set("modeljoin.marshal_ms", perOp(t.marshalNS))
	set("blas.sgemm_ms", perOp(t.sgemmNS))
	set("blas.sgemm_mflop", float64(t.sgemmFlops)/1e6/n)
	set("blas.sgemm_micro_gflops", micro)
	set("blas.sgemm_dense_gflops", microDense)
	if t.sgemmNS > 0 {
		achieved := float64(t.sgemmFlops) / float64(t.sgemmNS) // flop per ns is GFLOP/s
		set("blas.sgemm_gflops", achieved)
		set("blas.sgemm_efficiency", achieved/micro)
	}
	// Bias and activation passes over C, as the issue defines them. Under the
	// scheduler the program books the whole packed run as sgemm_ns, so what
	// is left here is the submit overhead, about 0: see README.md.
	set("modeljoin.epilogue_ms", perOp(t.inferNS-t.sgemmNS-t.marshalNS))
	set("infersched.batch_wait_ms", perOp(t.batchWaitNS))
	if resultRows > 0 {
		set("wire.bytes_per_row", float64(counts["wire_bytes"]+t.wireBytesIn)/n/resultRows)
	}
	set("client.first_row_ms", mean("client.Query")+mean("Rows.first"))
	set("client.drain_ms", mean("Rows.drain"))
	set("dist.fanout_connect_ms", perOp(t.fanoutNS))
	set("dist.first_row_ms", perOp(t.firstRowNS))
	set("dist.last_row_skew_ms", perOp(t.skewNS))
	set("dist.wire_mb_in", float64(t.wireBytesIn)/1e6/n)
	set("dist.finalize_ms", perOp(t.finalizeNS))
	if plain.ops() > 0 {
		set("runtime.gc_pause_ms_per_op", float64(plain.mem.PauseTotalNs)/1e6/plain.ops())
		set("runtime.allocs_per_op", float64(plain.mem.Mallocs)/plain.ops())
	}
	set("runtime.peak_heap_mb", peakHeap)
	// The layers must add back up. Busy time sums over partitions, so the
	// check is against CPU time, not wall time.
	busyMS := parseMS + prepareMS + updateMS + perOp(t.busyNS) + encodeMS + decodeMS
	set("ledger.cpu_coverage", busyMS/(float64(traced.cpu)/1e6/n))
	if p50 := percentile(plain.lat, 50); p50 > 0 {
		set("ledger.trace_overhead_pct", (percentile(traced.lat, 50)-p50)/p50*100)
	}

	path := filepath.Join(cfg.outDir, "trace-"+w.name+".json")
	if err := rec.write(path); err != nil {
		return traced, fmt.Errorf("writing %s: %w", path, err)
	}
	return traced, nil
}

// replayWire runs the result batch through the wire codec in isolation: every
// row encoded as the server does, then decoded as the client does.
func replayWire(b *vector.Batch, s scope) {
	cols := make([]wire.Column, b.Schema.Len())
	for i := range cols {
		cols[i] = wire.Column{Name: b.Schema.Col(i).Name, Type: b.Schema.Col(i).Type}
	}
	var buf []byte
	offsets := make([]int, b.Len()+1)
	end := s.span("wire.EncodeRow")
	for r := 0; r < b.Len(); r++ {
		buf = wire.EncodeRow(buf, b, r)
		offsets[r+1] = len(buf)
	}
	end()
	end = s.span("wire.DecodeRow")
	for r := 0; r < b.Len(); r++ {
		if _, err := wire.DecodeRow(buf[offsets[r]:offsets[r+1]], cols); err != nil {
			panic(err) // the codec rejected its own output
		}
	}
	end()
}

// replaySgemm times blas.Sgemm alone over the model's own layer shapes on one
// vector of fact rows and returns the rate in nominal GFLOP/s. The kernel
// skips activations that are zero, so there are two rates: fed the
// activations the model really produces it is the roofline the in-query rate
// is compared against; with dense set every zero is filled in first, which is
// the kernel with its zero-skip bypassed.
func replaySgemm(m *nn.Model, feats [][]float32, dense bool, s scope) float64 {
	const budget = 4e9 // nominal flop: a third of a second, enough to time steadily
	rows := min(vector.Size, len(feats))
	act := blas.NewMat(rows, len(feats[0]))
	for i := 0; i < rows; i++ {
		copy(act.Row(i), feats[i])
	}
	type gemm struct{ a, w, c blas.Mat }
	var pass []gemm
	var perPass float64
	for _, l := range m.Layers {
		d, ok := l.(*nn.Dense)
		if !ok {
			continue
		}
		pass = append(pass, gemm{a: act, w: d.W, c: blas.NewMat(rows, d.OutputDim())})
		perPass += float64(blas.FlopsGemm(rows, d.InputDim(), d.OutputDim()))
		act = d.Forward(act)
		for i, v := range act.Data {
			if dense && v == 0 {
				act.Data[i] = 1
			}
		}
	}
	run := func() {
		for _, g := range pass {
			blas.Sgemm(g.a, g.w, g.c)
		}
	}
	run() // warm the packing buffers
	reps := int(budget/perPass) + 1
	defer s.span("blas.Sgemm")()
	t0 := time.Now()
	for i := 0; i < reps; i++ {
		run()
	}
	return perPass * float64(reps) / float64(time.Since(t0))
}
