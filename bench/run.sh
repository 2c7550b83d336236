#!/usr/bin/env bash
# Builds affinitybench from source and runs it with the given arguments.
# Run from the repository root, for example:
#
#   bash bench/run.sh --workload des-wired-96 --seed 1 --seconds 20 --trace 0
#
# Every build product, the Go build cache and the toolchain's telemetry
# counters included, stays under .bench_build in the repository.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -f "$root/bench/go.mod" ]]; then
	echo "bench/run.sh: run from the repository root" >&2
	exit 1
fi
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp" "$build/config"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOMODCACHE="$build/gomod" \
	XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
(cd "$root/bench" && go build -o "$build/affinitybench" ./cmd/affinitybench) >&2
exec "$build/affinitybench" "$@"
