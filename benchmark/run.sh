#!/usr/bin/env bash
# Entry point named by BENCHMARK.json. The benchmark is a Go module of its
# own (it imports repro/internal/... through a replace directive), so this
# wrapper builds it from source into .bench_build/ at the checkout root —
# build cache included, nothing is written outside the checkout — and runs
# the binary from the checkout root with the caller's arguments.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$(dirname "$here")/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOWORK=off GOTOOLCHAIN=local
go build -C "$here" -o "$out/benchmark" .
exec "$out/benchmark" -work-dir "$out" "$@"
