#!/usr/bin/env bash
# Builds the end-to-end benchmark from this checkout's sources and runs it.
#
#   bash e2ebench/run.sh --workload oo7|kv|recover --seed N --seconds S --trace 0|1
#
# Run it from the repository root. Build outputs, the Go build cache and
# the run's store files all stay under $CARGO_TARGET_DIR (default
# .bench_build), so nothing is written outside the checkout.
set -euo pipefail
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in /*) ;; *) out="$PWD/$out" ;; esac
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
go build -C e2ebench -o "$out/e2ebench.bin" .
exec "$out/e2ebench.bin" --work "$out/e2ebench" "$@"
