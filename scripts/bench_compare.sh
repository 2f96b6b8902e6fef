#!/bin/sh
# bench_compare.sh [base.json] — run the full benchmark harness and gate
# it against a recorded baseline with cmd/benchcmp: any pinned hot-path
# benchmark whose bytes/op regresses >20% (beyond a small absolute slack)
# fails the script. The baseline defaults to the highest-numbered
# BENCH_PR<n>.json (scripts/bench_latest.sh). This is the repo's
# benchstat-equivalent regression gate; `make bench-compare` runs the
# same thing.
set -eu
cd "$(dirname "$0")/.."
base="${1:-$(./scripts/bench_latest.sh)}"

if [ -z "$base" ] || [ ! -f "$base" ]; then
  echo "bench_compare: baseline '$base' not found (record one with scripts/bench_baseline.sh BENCH_PR<n>.json)" >&2
  exit 2
fi

tmp="$(mktemp)"
trap 'rm -f "$tmp"' EXIT
echo "== benchmarks (full run, -benchmem) ==" >&2
go test -bench=. -benchmem -count=1 -timeout 60m . | tee "$tmp" >&2

echo "== bytes/op gate vs $base ==" >&2
go run ./cmd/benchcmp -base "$base" -new "$tmp"
