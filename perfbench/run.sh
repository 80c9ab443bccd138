#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it on one
# workload. Everything it writes (Go build cache, binary, WAL and snapshot
# scratch, traces) stays under .bench_build/ at the repository root.
#
# Usage, from the repository root:
#   bash perfbench/run.sh --workload mine_novel --seed 1 --seconds 48 --trace 0
set -euo pipefail
root=$(pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOENV=off GOFLAGS= GOWORK=off GOTOOLCHAIN=local
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
# One processor for the measured process: see BENCHMARK.json "controls".
GOMAXPROCS=1 exec "$out/perfbench" --workdir "$out" "$@"
