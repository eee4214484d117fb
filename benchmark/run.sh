#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: builds the benchmark from the
# checkout's own sources and runs it. Everything it writes — the Go build
# cache, the binary, the disk engines' segments — stays under .bench_build
# in the checkout it is started from.
set -euo pipefail
root=$(pwd)
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/internal" ]; then
	echo "benchmark: $root is not a checkout of the repository (no go.mod, no internal/): nothing to measure" >&2
	exit 1
fi
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOTOOLCHAIN=local GOWORK=off GOFLAGS=
go build -o "$build/benchmark" ./benchmark
exec "$build/benchmark" -data-dir "$build/data" "$@"
