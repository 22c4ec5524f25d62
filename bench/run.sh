#!/bin/bash
# Entry point of BENCHMARK.json: builds and runs ./bench from the root of a
# checkout, keeping every build product (Go build cache, temp files, the
# benchmark and daemon binaries) under the checkout's .bench_build directory.
# Arguments go to the benchmark unchanged; `go run ./bench ...` is the same
# program with the host's default cache locations.
set -euo pipefail
cd "$(dirname "$0")/.."
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" GOTOOLCHAIN=local
go build -o "$build/bench" ./bench
exec "$build/bench" "$@"
