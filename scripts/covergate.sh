#!/usr/bin/env bash
# covergate.sh — coverage report with a soft floor.
#
# Runs the test suite with -coverprofile, prints per-package statement
# coverage, and checks soft floors for the packages whose correctness
# rests on their tests: internal/sched (every dispatch policy),
# internal/live (the concurrent backend, whose differential harness is
# the cross-validation story), internal/obs (the recorder/ledger
# layer, whose zero-overhead and round-trip contracts are pure test
# surface), internal/des (the event heap, lock resource and named
# RNG substreams every simulation runs on, whose event-order and
# determinism guarantees rest on their unit and fuzz tests),
# internal/topo (the NUMA topology model, whose flat-machine no-op
# contract is what keeps every pre-topology golden valid),
# internal/policysearch (the counterfactual replay engine, whose
# zero-perturbation identity licenses every substituted replay) and
# internal/fifo (the block queue behind every simulator queue, whose
# order and memory bounds rest on its model test and fuzzer). The
# profile is written to $COVER_OUT (default cover.out) for CI to
# upload as an artifact.
#
# The floor is soft: a shortfall prints a loud warning and the script
# still exits 0, so refactors aren't blocked on a percentage point.
# Set COVERGATE_STRICT=1 to turn shortfalls into failures.
#
# Usage:
#   scripts/covergate.sh
#
# Knobs (environment):
#   COVER_OUT         profile output path     (default cover.out)
#   COVERGATE_STRICT  1 = fail below floor    (default 0, warn only)
set -euo pipefail

out=${COVER_OUT:-cover.out}
strict=${COVERGATE_STRICT:-0}

# package → minimum statement coverage, percent
floors='affinity/internal/sched=90 affinity/internal/live=85 affinity/internal/obs=90 affinity/internal/des=85 affinity/internal/topo=85 affinity/internal/policysearch=85 affinity/internal/fifo=95'

repo_root=$(git rev-parse --show-toplevel)
cd "$repo_root"

echo "covergate: running tests with -coverprofile=$out"
go test -count=1 -coverprofile="$out" \
    -coverpkg=./internal/sched/...,./internal/live/...,./internal/obs/...,./internal/des/...,./internal/topo/...,./internal/policysearch/...,./internal/fifo/... \
    ./internal/sched/... ./internal/live/... ./internal/obs/... ./internal/des/... ./internal/topo/... ./internal/policysearch/... ./internal/fifo/...

# Aggregate the profile per package. Blocks can appear once per test
# binary (each -coverpkg binary reports every package), so a block
# counts as covered when ANY binary executed it.
report=$(awk 'NR>1 {
    key=$1; n=$2; c=$3
    stmts[key]=n
    if (c > 0) hit[key]=1
} END {
    for (k in stmts) {
        pkg=k; sub(/\/[^\/]*:.*/, "", pkg)
        tot[pkg]+=stmts[k]
        if (hit[k]) cov[pkg]+=stmts[k]
    }
    for (p in tot) printf "%s %.1f\n", p, 100*cov[p]/tot[p]
}' "$out")

echo "covergate: per-package statement coverage"
echo "$report" | sort | awk '{printf "  %-32s %5.1f%%\n", $1, $2}'

fail=0
for floor in $floors; do
    pkg=${floor%=*}
    min=${floor#*=}
    got=$(echo "$report" | awk -v p="$pkg" '$1 == p {print $2}')
    if [ -z "$got" ]; then
        echo "covergate: WARNING — no coverage data for $pkg" >&2
        fail=1
        continue
    fi
    if awk -v g="$got" -v m="$min" 'BEGIN {exit !(g < m)}'; then
        echo "covergate: WARNING — $pkg at ${got}% is below the ${min}% floor" >&2
        fail=1
    else
        echo "covergate: $pkg ${got}% >= ${min}% floor"
    fi
done

if [ "$fail" -ne 0 ] && [ "$strict" = "1" ]; then
    echo "covergate: FAIL (COVERGATE_STRICT=1)" >&2
    exit 1
fi
exit 0
