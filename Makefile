GO ?= go
# The newest recorded benchmark baseline: the highest-numbered
# BENCH_PR<n>.json.
BASE ?= $(shell ./scripts/bench_latest.sh)

.PHONY: all build vet test race bench bench-smoke bench-compare check baseline serve smoke-serve obs-check slo distjob

all: check

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Full benchmark harness (every table/figure plus the serial-vs-parallel
# hot-path pairs). Compare against the recorded BENCH_PR*.json baselines.
bench:
	$(GO) test -bench=. -benchmem -count=1 .

# Quick regression signal: one iteration of each benchmark.
bench-smoke:
	$(GO) test -run xxx -bench=. -benchtime=1x .

# Full benchmark run gated against the newest recorded baseline: fails
# when a pinned hot-path benchmark regresses >20% bytes/op. Override the
# baseline with BASE=, e.g. `make bench-compare BASE=BENCH_PR1.json`.
bench-compare:
	./scripts/bench_compare.sh $(BASE)

# Run the nanocostd cost-model service on its default port (:8087).
serve:
	$(GO) run ./cmd/nanocostd

# End-to-end daemon smoke: build nanocostd, boot it on an ephemeral port,
# exercise /healthz and /v1/cost, and verify the SIGTERM drain.
smoke-serve:
	./scripts/smoke_serve.sh

# Router SLO gate: boot two nanocostd replicas behind nanocostfront,
# drive loadgen at a pinned rate, and require the p99 budget, zero
# non-2xx and byte-identical responses — including across a kill -9 of
# one replica mid-load. Tune with SLO_RPS= and SLO_P99=.
slo:
	./scripts/slo_check.sh

# Distributed-job gate: run a 2×10⁸-trial job on one plain replica for
# the reference bytes, rerun it across a coordinator + peer worker,
# kill -9 the worker after its first shard upload, and require the
# merged result byte-identical. Tune with DISTJOB_TRIALS=,
# DISTJOB_SHARDS= and DISTJOB_LEASE_TTL=.
distjob:
	./scripts/distjob_check.sh

# Observability gate: vet the telemetry packages and run the tracing,
# registry and /metrics text-exposition conformance tests race-enabled.
obs-check:
	$(GO) vet ./internal/obs/ ./internal/serve/
	$(GO) test -race -count=1 ./internal/obs/
	$(GO) test -race -count=1 -run 'TestMetricsExpositionConformance|TestTrace|TestRequestID|TestAccessLog|TestStreamedStatus' ./internal/serve/

# The gate run by CI and by scripts/check.sh.
check: vet build race bench-smoke obs-check

# Record a new benchmark baseline: `make baseline OUT=BENCH_PR<n>.json`,
# with n above every recorded one. OUT is required.
baseline:
	./scripts/bench_baseline.sh $(OUT)
