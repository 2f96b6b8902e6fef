#!/bin/sh
# bench_baseline.sh OUT.json — run the full benchmark harness
# (go test -bench=. -benchmem -count=1) and record the results as JSON:
# metadata plus one entry per benchmark line. The output name is
# required: name a new baseline BENCH_PR<n>.json with n above every
# recorded one, since the readers (scripts/check.sh, bench_compare.sh,
# make bench-compare) compare against the highest n. Diff future runs
# against it with scripts/bench_compare.sh or cmd/benchcmp to spot
# hot-path regressions.
#
# The metadata records the *actual* run environment — ncpu, GOMAXPROCS,
# the parallel engine's worker count and its chunk/tuner configuration —
# because a baseline is only comparable to runs from a similar machine:
#
#   - bytes/op depends on the code, not the host, so it compares across
#     any pair of hosts (though not exactly run to run for every
#     benchmark: BenchmarkRegularity's moves with -benchtime);
#   - ns/op and the custom throughput metrics (evals/sec, sims/sec from
#     b.ReportMetric) only mean something between multi-core hosts, so
#     cmd/benchcmp gates them only when both sides report ncpu > 1;
#   - when the machine has a single CPU the Serial/Parallel benchmark
#     pairs are annotated as uninformative — on 1 CPU the parallel engine
#     degenerates to the serial path plus scheduling overhead, so a
#     "parallel is not faster" reading from such a file is a property of
#     the recording host, not of the code (BENCH_PR1.json and
#     BENCH_PR6.json were recorded on 1 CPU).
#
# Each benchmark entry carries ns_per_op, bytes_per_op, allocs_per_op and
# a "metrics" object with any custom b.ReportMetric units on the line.
set -eu
cd "$(dirname "$0")/.."
if [ $# -ne 1 ]; then
  echo "usage: scripts/bench_baseline.sh OUT.json (a new BENCH_PR<n>.json; readers use the highest n)" >&2
  exit 2
fi
out=$1

ncpu="$(nproc 2>/dev/null || sysctl -n hw.ncpu 2>/dev/null || echo 1)"
gomaxprocs="${GOMAXPROCS:-$ncpu}"
if [ "$ncpu" -gt 1 ]; then
  pairs_informative=true
  pairs_note="serial-vs-parallel pairs recorded on $ncpu CPUs"
else
  pairs_informative=false
  pairs_note="recorded on 1 CPU: Serial/Parallel benchmark pairs are uninformative (the parallel engine cannot beat serial without cores); compare ns/op for those pairs only on a multi-core host"
fi

tmp="$(mktemp)"
trap 'rm -f "$tmp"' EXIT
go test -bench=. -benchmem -count=1 -timeout 60m . | tee "$tmp" >&2

{
  printf '{\n'
  printf '  "date": "%s",\n' "$(date -u +%Y-%m-%dT%H:%M:%SZ)"
  printf '  "go": "%s",\n' "$(go env GOVERSION)"
  printf '  "goos": "%s",\n' "$(go env GOOS)"
  printf '  "goarch": "%s",\n' "$(go env GOARCH)"
  printf '  "ncpu": %s,\n' "$ncpu"
  printf '  "gomaxprocs": %s,\n' "$gomaxprocs"
  printf '  "parallel_workers": %s,\n' "$gomaxprocs"
  printf '  "chunk_config": {"mc_chunk": 4096, "defect_sim_chunk": 1024, "sweep_unit_chunk": 16, "tuner_target_task_seconds": 0.0005},\n'
  printf '  "parallel_pairs_informative": %s,\n' "$pairs_informative"
  printf '  "parallel_pairs_note": "%s",\n' "$pairs_note"
  printf '  "command": "go test -bench=. -benchmem -count=1",\n'
  printf '  "benchmarks": [\n'
  awk '/^Benchmark/ {
    gsub(/"/, "");
    if (n++) printf ",\n";
    printf "    {\"name\": \"%s\", \"iterations\": %s, \"ns_per_op\": %s", $1, $2, $3;
    metrics = "";
    for (i = 5; i + 1 <= NF; i += 2) {
      v = $i; u = $(i+1);
      if (u == "B/op")            printf ", \"bytes_per_op\": %s", v;
      else if (u == "allocs/op")  printf ", \"allocs_per_op\": %s", v;
      else if (index(u, "/") > 0) metrics = metrics (metrics == "" ? "" : ", ") "\"" u "\": " v;
    }
    if (metrics != "") printf ", \"metrics\": {%s}", metrics;
    printf "}";
  }
  END { printf "\n" }' "$tmp"
  printf '  ]\n'
  printf '}\n'
} > "$out"
echo "baseline written to $out (ncpu=$ncpu, GOMAXPROCS=$gomaxprocs, parallel pairs informative: $pairs_informative)" >&2
