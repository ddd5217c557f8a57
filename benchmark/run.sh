#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it: the
# command of BENCHMARK.json. Everything the Go toolchain writes — build cache,
# temporary files, its own configuration — is kept under .bench_build/, so a
# run reads and writes nothing outside the checkout. The first run builds
# (about 20 s on two cores); later runs find the binary up to date.
set -euo pipefail
cd "$(dirname "$0")/.."

# Without the program there is nothing to measure: fail before starting any
# process.
if [ ! -f go.mod ] || [ ! -d internal ]; then
	echo "benchmark: no go.mod and internal/ beside benchmark/: not a checkout of the program" >&2
	exit 1
fi

build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config"
export GOPROXY=off GOTOOLCHAIN=local
# With a fresh configuration directory the go command starts a telemetry child
# that outlives it when the build is short or fails; mode "off" starts none.
mkdir -p "$XDG_CONFIG_HOME/go/telemetry"
echo off >"$XDG_CONFIG_HOME/go/telemetry/mode"

go build -o "$build/indbml-benchmark" ./benchmark
exec "$build/indbml-benchmark" "$@"
