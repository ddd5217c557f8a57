// Package indbml is a from-scratch Go reproduction of "Exploration of
// Approaches for In-Database ML" (Kläbe, Hagedorn, Sattler — EDBT 2023):
// neural-network inference pushed into an analytical database engine.
//
// The repository contains
//
//   - a vectorized, partitioned, compressed column-store SQL engine in the
//     spirit of Actian Vector / MonetDB-X100 (internal/engine/...);
//   - the paper's relational model representation and the ML-To-SQL
//     framework generating plain-SQL inference queries
//     (internal/core/relmodel, internal/core/mltosql);
//   - the native ModelJoin query operator with a parallel build phase and
//     vectorized BLAS inference, in CPU and simulated-GPU variants
//     (internal/core/modeljoin, internal/device, internal/blas);
//   - the baselines the paper compares against, each running the
//     ModelJoin operator's compiled model (modeljoin.Compile) through a
//     row-major C-API-style call: an in-engine C-API operator, a
//     Python-UDF host, and data export over a simulated ODBC wire
//     (internal/baselines, internal/pyudf, internal/odbc);
//   - the experiment harness regenerating every figure and table of the
//     paper's evaluation (internal/bench, cmd/mjbench).
//
// See README.md for a tour, DESIGN.md for the system inventory and
// substitutions, and EXPERIMENTS.md for measured-vs-paper results. The
// benchmarks in bench_test.go exercise one representative cell per figure
// and table plus the ablations DESIGN.md calls out, driven through
// internal/bench like cmd/mjbench, which runs the full grids. The system's
// own performance — end to end and per layer, at production defaults with
// the always-on flight recorder, statement stats and span tree that every
// statement carries — is measured by the program in benchmark/ (run
// benchmark/run.sh; see BENCHMARK.json).
package indbml
