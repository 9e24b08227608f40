#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: build the benchmark from source
# inside the checkout, then run it with the caller's arguments. Every
# byte the toolchain writes (build cache, temporaries, the binary) stays
# under .bench_build, so the run reads and writes only its checkout.
set -euo pipefail
cd "$(dirname "$0")/.."
b="$PWD/.bench_build"
mkdir -p "$b/tmp"
export GOCACHE="$b/gocache" GOPATH="$b/gopath" GOTMPDIR="$b/tmp" GOTOOLCHAIN=local
go build -o "$b/accbench" ./benchmark
exec "$b/accbench" "$@"
