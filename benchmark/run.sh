#!/usr/bin/env bash
# Builds the harness from source and runs it. Everything the Go toolchain
# writes (build cache, temporaries, the binary) stays under .bench_build/ in
# the checkout, so a run touches nothing outside it.
set -euo pipefail
cd "$(dirname "$0")/.."
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOTMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
go build -C benchmark -o "$build/navbench" .
exec "$build/navbench" "$@"
