#!/usr/bin/env bash
# Builds perfbench from this checkout's sources and runs it with the
# given arguments, e.g.
#
#   bash perfbench/run.sh --workload ingest --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. Build outputs (binary, Go build
# cache) stay under .bench_build in the current directory.
set -euo pipefail
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in /*) ;; *) out="$PWD/$out" ;; esac
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTOOLCHAIN=local GOFLAGS= GOWORK=off
go -C perfbench build -o "$out/perfbench-bin" . >&2
exec "$out/perfbench-bin" --out "$out/perfbench" "$@"
