#!/usr/bin/env bash
# Builds the benchmark from source and runs it, keeping everything the
# build and the run write inside the checkout: the binary, the Go build
# cache and temporary files go to .bench_build/ at the checkout's root,
# span files to benchmark/out/. Arguments are passed through, so
#
#   bash benchmark/run.sh --workload rpc --seed 1 --seconds 12 --trace 0
#
# is what the benchmark driver runs (see ../BENCHMARK.json).
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(dirname "$here")/.bench_build"
mkdir -p "$build/tmp"
# the go command's own files (build cache, temp, module cache, telemetry
# counters, env file) are pointed into .bench_build too
GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config" \
	GOENV=off GOTOOLCHAIN=local GOFLAGS= go build -C "$here" -o "$build/skipweb-benchmark" .
exec "$build/skipweb-benchmark" -outdir "$here/out" "$@"
