#!/usr/bin/env bash
# run.sh — build the fleet from the checkout it is run in and run one
# benchmark workload. Run from the repository root:
#
#   bash fleetbench/run.sh --workload serve-light --seed 1 --seconds 50 --trace 0
#
# Everything it builds or writes stays under .bench_build/ in the
# current directory, the Go build cache included. The last line of
# standard output is the JSON result; progress goes to standard error.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/bin"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTOOLCHAIN=local GOWORK=off GOFLAGS= GOENV=off

go build -o "$out/bin/" ./cmd/nanocostd ./cmd/nanocostfront >&2
(cd fleetbench && go build -o "$out/bin/fleetbench" .) >&2
exec "$out/bin/fleetbench" -spec "$root/BENCHMARK.json" -bin "$out/bin" -work "$out/run" "$@"
