package main

// runSeconds is how long one run measures; it is the run_seconds of
// BENCHMARK.json and the default of -seconds.
const runSeconds = 20

// metricDef names one metric of BENCHMARK.json. Bound is the share of the
// parent's median by which an end-to-end metric may worsen before a change
// counts as a regression; per-layer metrics carry none.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd is what a caller of the database sees. The same six metrics are
// reported on every workload.
//
// The issue proposed bounds of a tenth (0.15 on p90), to be kept "only if the
// spread is inside them". On this shared two-core host it is not. The
// run-to-run spread of a timing (interquartile range over median, ten runs on
// ten seeds) is 2-6% in a quiet hour and 7-16% in a busy one, and a
// neighbour's burst slows a compute-bound workload by half for minutes. The
// acceptance contract refuses a benchmark whose spread exceeds its bound, asks
// for spreads "below a third" of it and caps it at 0.25: three times the
// busy-hour spread is past the cap for all four timings, so they get the cap,
// as does setup_s, which times a fifth of a second on some workloads.
// alloc_mb_per_op repeats to 0.5% and gets three times that, rounded up to a
// hundredth. README.md has the measurements.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "op_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "op_p90_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "ops_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "cpu_ms_per_op", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "alloc_mb_per_op", Unit: "MB", Better: "lower", Bound: 0.02},
}

// perLayer is the ledger of the traced run. Every name is emitted on every
// workload; a layer a workload does not touch reports 0. All _ms values are
// busy milliseconds per operation, summed over partition instances.
var perLayer = []metricDef{
	{Name: "sql.parse_ms", Unit: "ms", Better: "lower"},
	{Name: "sql.stmt_bytes", Unit: "count", Better: "lower"},
	{Name: "db.prepare_ms", Unit: "ms", Better: "lower"},
	{Name: "db.model_cache_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "db.model_cache_hits", Unit: "count", Better: "higher"},
	{Name: "db.model_cache_misses", Unit: "count", Better: "lower"},
	{Name: "exec.scan_ms", Unit: "ms", Better: "lower"},
	{Name: "exec.join_ms", Unit: "ms", Better: "lower"},
	{Name: "exec.agg_ms", Unit: "ms", Better: "lower"},
	{Name: "exec.other_ms", Unit: "ms", Better: "lower"},
	{Name: "exec.scanned_mb", Unit: "MB", Better: "lower"},
	{Name: "exec.operator_rows", Unit: "count", Better: "lower"},
	{Name: "exec.result_rows", Unit: "count", Better: "higher"},
	{Name: "exec.rows_per_result", Unit: "ratio", Better: "lower"},
	{Name: "storage.update_ms", Unit: "ms", Better: "lower"},
	{Name: "storage.load_rows_per_s", Unit: "1/s", Better: "higher"},
	{Name: "relmodel.export_ms", Unit: "ms", Better: "lower"},
	{Name: "mltosql.generate_ms", Unit: "ms", Better: "lower"},
	{Name: "modeljoin.build_ms", Unit: "ms", Better: "lower"},
	{Name: "modeljoin.infer_ms", Unit: "ms", Better: "lower"},
	{Name: "modeljoin.marshal_ms", Unit: "ms", Better: "lower"},
	{Name: "modeljoin.epilogue_ms", Unit: "ms", Better: "lower"},
	{Name: "blas.sgemm_ms", Unit: "ms", Better: "lower"},
	{Name: "blas.sgemm_mflop", Unit: "count", Better: "lower"},
	{Name: "blas.sgemm_gflops", Unit: "GFLOP/s", Better: "higher"},
	{Name: "blas.sgemm_micro_gflops", Unit: "GFLOP/s", Better: "higher"},
	{Name: "blas.sgemm_dense_gflops", Unit: "GFLOP/s", Better: "higher"},
	{Name: "blas.sgemm_efficiency", Unit: "ratio", Better: "higher"},
	{Name: "infersched.batch_wait_ms", Unit: "ms", Better: "lower"},
	{Name: "infersched.rows_per_batch", Unit: "count", Better: "higher"},
	{Name: "infersched.requests_per_batch", Unit: "count", Better: "higher"},
	{Name: "wire.encode_ms", Unit: "ms", Better: "lower"},
	{Name: "wire.decode_ms", Unit: "ms", Better: "lower"},
	{Name: "wire.bytes_per_row", Unit: "count", Better: "lower"},
	{Name: "server.overhead_ms", Unit: "ms", Better: "lower"},
	{Name: "client.first_row_ms", Unit: "ms", Better: "lower"},
	{Name: "client.drain_ms", Unit: "ms", Better: "lower"},
	{Name: "dist.overhead_ms", Unit: "ms", Better: "lower"},
	{Name: "dist.fanout_connect_ms", Unit: "ms", Better: "lower"},
	{Name: "dist.first_row_ms", Unit: "ms", Better: "lower"},
	{Name: "dist.last_row_skew_ms", Unit: "ms", Better: "lower"},
	{Name: "dist.wire_mb_in", Unit: "MB", Better: "lower"},
	{Name: "dist.finalize_ms", Unit: "ms", Better: "lower"},
	{Name: "runtime.gc_pause_ms_per_op", Unit: "ms", Better: "lower"},
	{Name: "runtime.allocs_per_op", Unit: "count", Better: "lower"},
	{Name: "runtime.peak_heap_mb", Unit: "MB", Better: "lower"},
	{Name: "ledger.cpu_coverage", Unit: "ratio", Better: "higher"},
	{Name: "ledger.trace_overhead_pct", Unit: "%", Better: "lower"},
}
