#!/usr/bin/env bash
# Entry point named in BENCHMARK.json: builds the benchmark (package main of
# the nested module in this directory) and runs it with the arguments given.
# Everything the Go toolchain writes — build cache, temporary files, the two
# binaries — goes under .bench_build in the repository root, so a run leaves
# nothing behind outside it. In a directory that holds only BENCHMARK.json
# and bench/ the build fails (there is no clio module to import) and the
# script exits non-zero without printing a result.
set -euo pipefail

root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
out="$root/.bench_build"
mkdir -p "$out/gotmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOTOOLCHAIN=local

cd "$root"
go build -C bench -o "$out/clio-bench" .
exec "$out/clio-bench" "$@"
