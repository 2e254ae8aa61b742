#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it. The
# build cache and the binary live under .bench_build/ (git-ignored), so
# nothing is read from or written to a path outside the checkout except the
# Go toolchain itself.
set -euo pipefail
build="$PWD/.bench_build"
mkdir -p "$build/gocache"
GOCACHE="$build/gocache" go build -o "$build/jitbull-bench" ./bench
exec "$build/jitbull-bench" "$@"
