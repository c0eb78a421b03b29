#!/usr/bin/env bash
# Builds the benchmark harness inside the checkout and runs it from the
# checkout root (BENCHMARK.json's command). Everything it writes stays
# under .bench_build/ (compiler cache, binary) and .bench_work/ (graphs,
# WALs, span files) of the checkout.
set -euo pipefail
root=$(pwd)
if [ ! -f "$root/go.mod" ] || [ ! -f "$root/benchmark/go.mod" ]; then
	echo "benchmark: run from the root of a gstore checkout (go.mod and benchmark/ side by side)" >&2
	exit 2
fi
export GOCACHE="$root/.bench_build/gocache" GOFLAGS=-mod=mod GOTOOLCHAIN=local GOPROXY=off
mkdir -p "$root/.bench_build"
go build -C "$root/benchmark" -o "$root/.bench_build/gstore-benchmark" .
exec "$root/.bench_build/gstore-benchmark" "$@"
