#!/usr/bin/env bash
# Regenerate a benchmark report. BENCH_PR4.json is the one checked-in
# baseline: the rate-monotonic kernel and probes, saturation fast vs
# oracle, FIG1, the simulators, the served analyze path with its body
# scanner and response writer, ring edits in the engine and served, and
# the observability-plane hot paths (flight-recorder record, audit
# append, span end).
#
# Usage:
#   scripts/bench.sh [out.json]
#
# Without out.json the report goes to a new temporary file, whose path is
# printed; refreshing a checked-in baseline takes its name explicitly
# (scripts/bench.sh BENCH_PR4.json).
#
# Environment:
#   BENCH_PATTERN   benchmark regexp (default: the gated harness set)
#   BENCH_COUNT     -count repeats folded by benchreport (default 3)
#   BENCH_TIME      -benchtime per benchmark (default 0.5s)
#
# Compare a fresh run against the checked-in report (allocation gate only;
# wall-clock comparisons across machines are meaningless):
#   scripts/bench.sh /tmp/head.json
#   go run ./cmd/benchreport -in /tmp/head.json -baseline BENCH_PR4.json -ns-tol -1
set -euo pipefail
cd "$(dirname "$0")/.."

out="${1:-$(mktemp "${TMPDIR:-/tmp}/ringsched-bench.XXXXXX")}"
pattern="${BENCH_PATTERN:-^(BenchmarkRTAReference|BenchmarkWorkspaceProbe|Benchmark(PDP|TTP)Probe(Bind)?|BenchmarkAnalyzeBatch|BenchmarkSaturate(TTP|PDP)(Reference)?|BenchmarkTheorem(41|51)|BenchmarkFig1Experiment|BenchmarkAnalyzeTopologySingleRing|BenchmarkResilienceAdmit|BenchmarkRingEdit(Incremental|IncrementalTTP|Full)|BenchmarkAuditAppend|BenchmarkFlightRecorderRecord|BenchmarkSpanEnd|Benchmark(PDP|TTP|Reservation)SimSecond(1000)?|BenchmarkServeAnalyze(Hit|Miss)|BenchmarkServeRingEdit|BenchmarkDecodeAnalyzeScan|BenchmarkEncodeAnalyzeResponse)$}"
count="${BENCH_COUNT:-3}"
benchtime="${BENCH_TIME:-0.5s}"

tmp="$(mktemp)"
trap 'rm -f "$tmp"' EXIT

go test -run '^$' -bench "$pattern" -benchmem \
    -benchtime "$benchtime" -count "$count" -timeout 60m \
    . ./internal/rma/ ./internal/core/ ./internal/breakdown/ ./internal/resilience/ ./internal/ringstate/ ./internal/service/ ./internal/trace/ | tee "$tmp"
go run ./cmd/benchreport -in "$tmp" -out "$out"
echo "wrote $out"
