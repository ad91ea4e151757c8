#!/usr/bin/env bash
# Runs the benchmark several times per workload, each run with its own
# seed and the run length BENCHMARK.json sets, then prints the steadiness
# report over those runs (median, quartiles, IQR/median, interleaved-half
# difference, raw beside calibrated). Workloads take turns, so each one's
# runs are spread over the whole session.
#
#   bash perfbench/steady.sh [runs] [workload ...]
#
# SEED_BASE (default 100) sets the first seed; run i uses SEED_BASE+i.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
runs="${1:-10}"
shift || true
workloads=("$@")
if [ ${#workloads[@]} -eq 0 ]; then
	workloads=(analyze-mix ring-admit fig1-sweep token-sim)
fi
seconds="$(sed -n 's/.*"run_seconds": *\([0-9][0-9]*\).*/\1/p' "$root/BENCHMARK.json")"
out="$root/.bench_build/steady/$(date +%Y%m%d-%H%M%S)"
mkdir -p "$out"

for ((i = 1; i <= runs; i++)); do
	for w in "${workloads[@]}"; do
		f="$(printf '%s/%s-%02d' "$out" "$w" "$i")"
		bash "$root/perfbench/run.sh" --workload "$w" --seed "$((${SEED_BASE:-100} + i))" \
			--seconds "$seconds" --trace 0 >"$f.out" 2>"$f.err"
		tail -n 1 "$f.out"
	done
done
cd "$root"
"$root/.bench_build/perfbench" --report "$out"/*.out | tee "$out/report.txt"
