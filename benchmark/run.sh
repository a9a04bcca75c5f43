#!/usr/bin/env bash
# Entry point named by BENCHMARK.json. Run from the root of a checkout:
#
#   bash benchmark/run.sh --workload thm1-n1024 --seed 1 --seconds 15 --trace 0
#
# Builds the benchmark from source and runs it with the given arguments.
# The Go build cache, the toolchain's temporary files and the binary are
# kept inside the checkout (.bench_build/), so a run reads and writes
# nothing outside it.
set -euo pipefail
cd "$(dirname "$0")/.."
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/go-cache" GOTMPDIR="$build/tmp"
export GOWORK=off GOTOOLCHAIN=local GOFLAGS=
go build -C benchmark -o "$build/omicon-benchmark" .
cd benchmark
exec "$build/omicon-benchmark" "$@"
