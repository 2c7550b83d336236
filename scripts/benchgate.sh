#!/usr/bin/env bash
# benchgate.sh — benchmark regression gate.
#
# Runs the hot-path benchmark set at a base ref and at the working tree,
# then compares medians with the vendored scripts/benchcmp comparator.
# The gate FAILS when median time/op regresses by more than
# $BENCHGATE_MAX_TIME_REGRESSION percent (default 10) or when allocs/op
# increases at all — allocation counts are deterministic, so any growth
# is a real regression, never noise. It also fails, rather than passing
# vacuously, when a benchmark present at the base ref is missing from
# the head run (renamed/deleted benchmarks shrink the comparison) or
# when the head run produced no benchmarks at all.
#
# Usage:
#   scripts/benchgate.sh <base-ref>          # e.g. origin/main or a SHA
#
# Knobs (environment):
#   BENCHGATE_BENCH                regex of benchmarks to gate on
#                                  (default: the simulator hot path)
#   BENCHGATE_COUNT                repetitions per benchmark (default 6;
#                                  medians absorb scheduler noise)
#   BENCHGATE_MAX_TIME_REGRESSION  allowed time/op growth in percent
#                                  (default 10)
#
# If `benchstat` happens to be installed it is also run for a nicer
# statistical summary, but the gate itself never requires it.
set -euo pipefail

base_ref=${1:?usage: scripts/benchgate.sh <base-ref>}
bench=${BENCHGATE_BENCH:-'^(BenchmarkFigE5LockingDelay|BenchmarkDESScheduleFire|BenchmarkDESEventQueue|BenchmarkSimulationPerPacket|BenchmarkDecisionLedgerPerPacket|BenchmarkModelExecTime|BenchmarkExecTimeCompiled|BenchmarkWorkloadSpecPerPacket|BenchmarkDispatch)$'}
count=${BENCHGATE_COUNT:-6}
max_regress=${BENCHGATE_MAX_TIME_REGRESSION:-10}

repo_root=$(git rev-parse --show-toplevel)
cd "$repo_root"

workdir=$(mktemp -d)
base_tree="$workdir/base"
trap 'git worktree remove --force "$base_tree" 2>/dev/null || true; rm -rf "$workdir"' EXIT

echo "benchgate: base=$base_ref bench=$bench count=$count max-time-regress=${max_regress}%"

git worktree add --quiet --detach "$base_tree" "$base_ref"

run_bench() {
    (cd "$1" && go test -run '^$' -bench "$bench" -benchmem -count "$count" -timeout 30m .)
}

echo "benchgate: running base benchmarks…"
run_bench "$base_tree" > "$workdir/base.txt"
echo "benchgate: running head benchmarks…"
run_bench "$repo_root" > "$workdir/head.txt"

if command -v benchstat >/dev/null 2>&1; then
    benchstat "$workdir/base.txt" "$workdir/head.txt" || true
fi

go run ./scripts/benchcmp -max-time-regress "$max_regress" "$workdir/base.txt" "$workdir/head.txt"
