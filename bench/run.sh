#!/usr/bin/env bash
# Builds the benchmark from this checkout and runs it with the given
# flags (see bench/README.md). Everything the build and the run write
# stays under .bench_build/ at the root of the checkout.
set -euo pipefail
cd "$(dirname "$0")/.."
root=$PWD
export GOCACHE="$root/.bench_build/gocache"
export GOFLAGS=-mod=mod GOTOOLCHAIN=local
go build -C bench -o "$root/.bench_build/bench" .
exec "$root/.bench_build/bench" "$@"
