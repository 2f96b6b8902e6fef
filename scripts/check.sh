#!/bin/sh
# check.sh — the repository's verification gate: vet, build, race-enabled
# tests, and a one-iteration benchmark smoke so a broken benchmark fails
# fast. Equivalent to `make check` for environments without make.
set -eu
cd "$(dirname "$0")/.."

echo "== go vet ==" >&2
go vet ./...

echo "== go build ==" >&2
go build ./...

echo "== go test -race ==" >&2
go test -race ./...

echo "== serve smoke (short, race-enabled) ==" >&2
go test -race -short -count=1 ./internal/serve/ ./cmd/nanocostd/

echo "== /v1/batch at 1024 items under -race (pooled-scratch contract) ==" >&2
go test -race -count=1 -run 'TestBatchFullCapacityReusesScratch|TestBatchConcurrentFullCapacity' ./internal/serve/

echo "== obs conformance (registry, tracing, exposition; race-enabled) ==" >&2
go test -race -count=1 ./internal/obs/
go test -race -count=1 -run 'TestMetricsExpositionConformance|TestTrace|TestRequestID|TestAccessLog|TestStreamedStatus' ./internal/serve/

echo "== bench smoke (1 iteration each) ==" >&2
go test -run xxx -bench=. -benchtime=1x .

# Regression gate: compare the smoke run against the most recent recorded
# baseline (the highest-numbered BENCH_PR<n>.json, scripts/bench_latest.sh)
# with cmd/benchcmp (the repo's benchstat stand-in). bytes/op is gated
# unconditionally; ns/op and the custom throughput metrics (evals/sec,
# sims/sec) are gated by benchcmp only when both the baseline and this
# host are multi-core — wall-clock from a 1x smoke run on a single-core
# box is noise, and benchcmp knows to skip it. For the full-fidelity
# version run `make bench-compare`.
base="$(./scripts/bench_latest.sh)"
if [ -n "$base" ]; then
  echo "== benchmark gate (bytes/op always; ns/op + metrics on multi-core) vs $base ==" >&2
  go test -run xxx -bench=. -benchtime=1x -benchmem . | go run ./cmd/benchcmp -base "$base"
else
  echo "== benchmark gate skipped (no baseline recorded yet) ==" >&2
fi

echo "== router SLO gate (nanocostfront + 2 replicas + loadgen, kill -9 mid-load) ==" >&2
./scripts/slo_check.sh

echo "== distributed-job gate (2 replicas, kill -9 worker mid-job, byte-identical merge) ==" >&2
./scripts/distjob_check.sh

echo "check: all gates passed" >&2
