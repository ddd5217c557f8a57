# Convenience targets for the in-database ML reproduction.

GO ?= go

.PHONY: all build test race vet bench bench-paper trace-smoke flight-smoke stats-smoke shard-smoke dist-trace-smoke alert-smoke examples experiments experiments-paper clean

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

# End-to-end observability smoke: run EXPLAIN ANALYZE on the demo MODEL
# JOIN through the real shell and check the annotated plan carries rows and
# the cache verdict.
trace-smoke:
	printf '\\demo\nEXPLAIN ANALYZE SELECT class, COUNT(*) AS n FROM iris MODEL JOIN iris_model PREDICT (sepal_length, sepal_width, petal_length, petal_width) GROUP BY class ORDER BY class;\n\\q\n' \
		| $(GO) run ./cmd/vectordb | tee trace_smoke.txt
	grep -q 'ModelJoin' trace_smoke.txt
	grep -q 'rows=150' trace_smoke.txt
	grep -q 'cache=' trace_smoke.txt
	grep -q 'Total:' trace_smoke.txt
	rm -f trace_smoke.txt

# End-to-end flight-recorder smoke: boot vectordbd, run a demo workload
# over the wire, assert SELECT count(*) FROM system.queries > 0.
flight-smoke:
	./scripts/flight_smoke.sh

# End-to-end control-plane smoke: boot vectordbd, run one statement shape
# with two different literals, assert system.statement_stats folded them
# onto one fingerprint, system.sessions shows the connection, and KILL of a
# bogus ID errors cleanly.
stats-smoke:
	./scripts/stats_smoke.sh

# End-to-end scale-out smoke: boot three shard daemons plus a coordinator,
# scatter rows into a SHARD BY table, assert distributed aggregation and
# MODEL JOIN results and the fleet system.queries view's fragment rows.
shard-smoke:
	./scripts/shard_smoke.sh

# End-to-end alert smoke: boot vectordbd with a fast telemetry tick and a
# low-threshold -alert rule, drive traffic until \alerts shows it firing,
# quiesce, and assert it resolves with both transitions in the JSON log.
alert-smoke:
	./scripts/alert_smoke.sh

# End-to-end distributed-tracing smoke: boot a 3-shard cluster, run EXPLAIN
# ANALYZE on a sharded MODEL JOIN, assert the stitched per-shard subtrees,
# fan-out/skew counters, and the fleet system.query_operators rows.
dist-trace-smoke:
	./scripts/dist_trace_smoke.sh

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
	rm -f results_paper.csv forecaster.json test_output.txt bench_output.txt trace_smoke.txt
	rm -rf .bench_build benchmark/out
