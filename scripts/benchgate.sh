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
# The two sides run in interleaved rounds: each round runs every gated
# benchmark once at each side, and the side that goes first alternates
# from round to round. Host speed drifts over minutes, so running one
# side's repetitions before the other's lets the drift decide the
# verdict; interleaved, it lands on both sides alike. Every benchmark
# runs at GOMAXPROCS 1 (-cpu 1): the gated set is single-goroutine
# except BenchmarkFigE5LockingDelay, whose grid runs on a concurrent
# sim.Pool and allocates a varying amount at more than one P, and
# BenchmarkLivePerPacket, whose processor goroutines then take turns on
# the one P.
#
# Usage:
#   scripts/benchgate.sh <base-ref>          # e.g. origin/main or a SHA
#
# Knobs (environment):
#   BENCHGATE_BENCH                regex of benchmarks to gate on
#                                  (default: the simulator hot path)
#   BENCHGATE_COUNT                rounds (default 6; each runs every
#                                  benchmark once per side, and medians
#                                  absorb scheduler noise)
#   BENCHGATE_MAX_TIME_REGRESSION  allowed time/op growth in percent
#                                  (default 10)
#
# If `benchstat` happens to be installed it is also run for a nicer
# statistical summary, but the gate itself never requires it.
set -euo pipefail

base_ref=${1:?usage: scripts/benchgate.sh <base-ref>}
bench=${BENCHGATE_BENCH:-'^(BenchmarkFigE5LockingDelay|BenchmarkDESScheduleFire|BenchmarkDESEventQueue|BenchmarkDESTimers|BenchmarkSimulationPerPacket|BenchmarkLivePerPacket|BenchmarkDecisionLedgerPerPacket|BenchmarkModelExecTime|BenchmarkExecTimeCompiled|BenchmarkExecTimeCompiledChain|BenchmarkWorkloadSpecPerPacket|BenchmarkDispatch)$'}
count=${BENCHGATE_COUNT:-6}
max_regress=${BENCHGATE_MAX_TIME_REGRESSION:-10}

repo_root=$(git rev-parse --show-toplevel)
cd "$repo_root"

workdir=$(mktemp -d)
base_tree="$workdir/base"
trap 'rm -rf "$workdir"' EXIT

echo "benchgate: base=$base_ref bench=$bench rounds=$count max-time-regress=${max_regress}%"

mkdir "$base_tree"
git archive "$base_ref" | tar -x -C "$base_tree"

echo "benchgate: building both sides' benchmarks…"
(cd "$base_tree" && go test -c -o "$workdir/base.test" .)
(cd "$repo_root" && go test -c -o "$workdir/head.test" .)

# run_bench <side> appends one pass over the gated set to <side>.txt,
# running the side's test binary in its own tree.
run_bench() {
    local tree=$base_tree
    [ "$1" = head ] && tree=$repo_root
    (cd "$tree" && "$workdir/$1.test" -test.run '^$' -test.bench "$bench" -test.benchmem \
        -test.count 1 -test.cpu 1 -test.timeout 30m) >> "$workdir/$1.txt"
}

for ((round = 1; round <= count; round++)); do
    if ((round % 2)); then sides="base head"; else sides="head base"; fi
    echo "benchgate: round $round/$count ($sides)…"
    for side in $sides; do
        run_bench "$side"
    done
done

if command -v benchstat >/dev/null 2>&1; then
    benchstat "$workdir/base.txt" "$workdir/head.txt" || true
fi

go run ./scripts/benchcmp -max-time-regress "$max_regress" "$workdir/base.txt" "$workdir/head.txt"
