# Convenience targets for the in-database ML reproduction.

GO ?= go

.PHONY: all build test race vet bench bench-paper examples experiments experiments-paper clean

all: build vet test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# -shuffle=on randomizes test order so inter-test state dependencies
# surface in CI instead of in production.
test:
	$(GO) test -shuffle=on ./...

# The serving layer is concurrency-heavy; run the whole suite under the
# race detector.
race:
	$(GO) test -race ./...

# The repo's benchmark (BENCHMARK.json): five workloads at production
# defaults, six end-to-end metrics and a per-layer ledger. Compare two runs
# with `go run ./benchmark -compare old.json new.json`.
bench:
	bash benchmark/run.sh

# One representative cell per paper figure/table plus the ablations, the
# BLAS kernel microbenchmarks and the ModelJoin build-phase benches.
bench-paper:
	$(GO) test -run=NONE -bench=. -benchmem . ./internal/blas ./internal/core/modeljoin

examples: build
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/iris
	$(GO) run ./examples/timeseries
	$(GO) run ./examples/fraud

# Laptop-sized regeneration of every figure and table (see EXPERIMENTS.md).
experiments:
	$(GO) run ./cmd/mjbench -experiment all -scale small -csv results_small.csv

# The paper's exact parameter grid — hours of runtime on a small machine.
experiments-paper:
	$(GO) run ./cmd/mjbench -experiment all -scale paper -csv results_paper.csv

# Removes only what the targets above leave behind; results_small.csv and
# mjbench_small.txt are tracked evidence and stay.
clean:
	rm -f results_paper.csv forecaster.json test_output.txt bench_output.txt
	rm -rf .bench_build benchmark/out
