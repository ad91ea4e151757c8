#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Every argument is passed
# through, e.g.:
#
#   bash perfbench/run.sh --workload analyze-mix --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run leave behind goes under .bench_build/
# at the repository root; nothing outside the checkout is written.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gomodcache" "$build/tmp" "$build/config"

# XDG_CONFIG_HOME keeps the go command's telemetry counters in here too.
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config"
export GOFLAGS= GOWORK=off GOPROXY=off GOTOOLCHAIN=local GOENV=off CGO_ENABLED=0

# Build beside the binary and rename, so a run never executes a
# half-written file.
go -C "$root/perfbench" build -trimpath -o "$build/perfbench.$$" .
mv -f "$build/perfbench.$$" "$build/perfbench"
cd "$root"
exec "$build/perfbench" "$@"
