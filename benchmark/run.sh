#!/usr/bin/env bash
# The command BENCHMARK.json names. It keeps the Go build cache and the
# toolchain's temporary files inside the checkout (.bench_build, which
# the root .gitignore names), so a run writes nothing outside it, and
# hands every argument to the benchmark program.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
export GOCACHE="$PWD/.bench_build/go-cache" GOTMPDIR="$PWD/.bench_build/tmp"
mkdir -p "$GOCACHE" "$GOTMPDIR"
exec go run ./benchmark "$@"
