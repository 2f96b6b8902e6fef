#!/bin/sh
# bench_latest.sh — print the newest recorded benchmark baseline: the
# BENCH_PR<n>.json at the repository root with the highest n. Prints
# nothing when none is recorded. scripts/check.sh, bench_compare.sh and
# the Makefile all compare against this file.
set -eu
cd "$(dirname "$0")/.."
ls BENCH_PR*.json 2>/dev/null |
  sed -n 's/^BENCH_PR\([0-9][0-9]*\)\.json$/\1 &/p' |
  sort -n | tail -n 1 | cut -d' ' -f2
