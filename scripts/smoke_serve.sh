#!/bin/sh
# smoke_serve.sh — end-to-end daemon smoke test: build nanocostd, boot it
# on an ephemeral port, hit /healthz and /v1/cost, require the eq (6) pole
# to answer 400 out_of_domain, round-trip /v1/batch against the individual
# endpoint, stream a sweep as NDJSON, revalidate a figure ETag, follow an
# X-Trace-Id to its /debug/trace span tree, check the X-Request-Id error
# envelope contract and the opt-in pprof listener, run a sharded
# simulation job through /v1/jobs (including a kill -9 mid-job and a
# checkpoint resume whose result must be byte-identical to an
# uninterrupted run and whose timeline must continue the killed run's
# events as one gap-free seq sequence), follow a job's event timeline and
# require a
# cancelled job's NDJSON event stream to end with the cancelled event,
# route one traced request through nanocostfront and require the
# router's federated /debug/trace view to hold both processes' spans,
# then deliver SIGTERM and verify the process drains and exits cleanly.
set -eu
cd "$(dirname "$0")/.."

command -v curl >/dev/null 2>&1 || { echo "smoke_serve: curl not found" >&2; exit 1; }

workdir=$(mktemp -d)
bin="$workdir/nanocostd"
log="$workdir/nanocostd.log"
cleanup() {
  [ -n "${pid:-}" ] && kill "$pid" 2>/dev/null || true
  [ -n "${jpid:-}" ] && kill -9 "$jpid" 2>/dev/null || true
  [ -n "${fpid:-}" ] && kill -9 "$fpid" 2>/dev/null || true
  rm -rf "$workdir"
}
trap cleanup EXIT

# wait_addr LOGFILE PID: poll LOGFILE for the daemon's bound address.
wait_addr() {
  wa_log=$1; wa_pid=$2; wa_addr=""
  i=0
  while [ $i -lt 100 ]; do
    wa_addr=$(sed -n 's/.*nanocostd listening.*addr=\([^ ]*\).*/\1/p' "$wa_log" | head -n 1)
    [ -n "$wa_addr" ] && break
    kill -0 "$wa_pid" 2>/dev/null || { echo "smoke_serve: daemon died during startup:" >&2; cat "$wa_log" >&2; exit 1; }
    i=$((i + 1))
    sleep 0.1
  done
  [ -n "$wa_addr" ] || { echo "smoke_serve: no listen address in log:" >&2; cat "$wa_log" >&2; exit 1; }
  echo "$wa_addr"
}

echo "== build nanocostd ==" >&2
go build -o "$bin" ./cmd/nanocostd

"$bin" -addr 127.0.0.1:0 -debug-addr 127.0.0.1:0 -job-dir "$workdir/jobsA" 2>"$log" &
pid=$!

# The daemon logs its bound address ("nanocostd listening ... addr=HOST:PORT")
# once the listener is up; poll for it rather than racing a fixed sleep.
addr=$(wait_addr "$log" "$pid")
echo "== daemon up at $addr ==" >&2

echo "== /healthz ==" >&2
health=$(curl -sf "http://$addr/healthz")
echo "$health" | grep -q '"status":"ok"' || { echo "smoke_serve: bad healthz: $health" >&2; exit 1; }

echo "== /v1/cost (valid scenario) ==" >&2
body='{"process":{"lambda_um":0.18,"yield":0.4},"design":{"transistors":10e6,"sd":300},"wafers":5000}'
cost=$(curl -sf -X POST -d "$body" "http://$addr/v1/cost")
echo "$cost" | grep -q '"breakdown"' || { echo "smoke_serve: bad cost response: $cost" >&2; exit 1; }

echo "== /v1/cost (s_d at the eq (6) pole -> 400 out_of_domain) ==" >&2
bad='{"process":{"lambda_um":0.18,"yield":0.4},"design":{"transistors":10e6,"sd":90},"wafers":5000}'
status=$(curl -s -o "$workdir/pole.json" -w '%{http_code}' -X POST -d "$bad" "http://$addr/v1/cost")
[ "$status" = "400" ] || { echo "smoke_serve: pole request got HTTP $status, want 400" >&2; exit 1; }
grep -q '"out_of_domain"' "$workdir/pole.json" || { echo "smoke_serve: pole response lacks out_of_domain: $(cat "$workdir/pole.json")" >&2; exit 1; }

echo "== /v1/batch (item bytes == individual call bytes) ==" >&2
batch_req='{"items":[{"kind":"cost","body":'"$body"'},{"kind":"cost","body":'"$bad"'},{"kind":"designcost","body":{"transistors":10e6,"sd":300}}]}'
batch=$(curl -sf -X POST -d "$batch_req" "http://$addr/v1/batch")
echo "$batch" | grep -q '"count":3' || { echo "smoke_serve: batch count wrong: $batch" >&2; exit 1; }
# Item 0 must embed exactly the bytes the single endpoint answers (modulo
# its trailing newline); item 1 is the pole and must carry its own error
# envelope inside a 200 batch.
single=$(printf '%s' "$cost")
case "$batch" in
  *"$single"*) : ;;
  *) echo "smoke_serve: batch item 0 differs from individual /v1/cost bytes" >&2; exit 1 ;;
esac
echo "$batch" | grep -q '"status":400' || { echo "smoke_serve: batch did not isolate the pole item: $batch" >&2; exit 1; }
echo "$batch" | grep -q '"out_of_domain"' || { echo "smoke_serve: batch pole item lacks out_of_domain: $batch" >&2; exit 1; }

echo "== /v1/batch throughput (1024 items, timed) ==" >&2
big_req="$workdir/batch1024.json"
awk 'BEGIN {
  printf "{\"items\":[";
  for (i = 0; i < 1024; i++) {
    if (i) printf ",";
    printf "{\"kind\":\"cost\",\"body\":{\"process\":{\"lambda_um\":0.18,\"yield\":0.4},\"design\":{\"transistors\":10e6,\"sd\":%d},\"wafers\":5000}}", 150 + i % 600;
  }
  printf "]}";
}' > "$big_req"
elapsed=$(curl -sf -o "$workdir/batch1024_resp.json" -w '%{time_total}' -X POST --data-binary @"$big_req" "http://$addr/v1/batch") \
  || { echo "smoke_serve: 1024-item batch request failed" >&2; exit 1; }
grep -q '"count":1024' "$workdir/batch1024_resp.json" || { echo "smoke_serve: 1024-item batch count wrong: $(head -c 200 "$workdir/batch1024_resp.json")" >&2; exit 1; }
rate=$(awk -v t="$elapsed" 'BEGIN { if (t > 0) printf "%.0f", 1024 / t; else printf "inf" }')
echo "smoke_serve: 1024-item batch served in ${elapsed}s (~${rate} evals/sec)" >&2
# The batch must show up in the telemetry: the per-item outcome counter
# covers every item sent so far (1024 + the 2 ok / 1 error from the
# mixed batch above), and the worker-pool chunk histograms must have
# observed tasks — the pooled batch path runs on the chunked engine.
metrics_now=$(curl -sf "http://$addr/metrics")
ok_items=$(echo "$metrics_now" | awk '$1 == "nanocostd_batch_items_total{outcome=\"ok\"}" { print $2 }')
[ -n "$ok_items" ] || { echo "smoke_serve: /metrics lacks nanocostd_batch_items_total{outcome=\"ok\"}" >&2; exit 1; }
[ "${ok_items%.*}" -ge 1024 ] || { echo "smoke_serve: batch ok-item counter = $ok_items, want >= 1024" >&2; exit 1; }
for hist in nanocostd_pool_chunk_wait_seconds nanocostd_pool_chunk_exec_seconds; do
  cnt=$(echo "$metrics_now" | awk -v h="${hist}_count" '$1 == h { print $2 }')
  [ -n "$cnt" ] && [ "${cnt%.*}" -gt 0 ] || { echo "smoke_serve: $hist histogram did not move (count=$cnt)" >&2; exit 1; }
done

echo "== /v1/sweep NDJSON streaming ==" >&2
sweep_req='{"scenario":'"$body"',"variable":"sd","lo":200,"hi":2000,"points":64}'
lines=$(curl -sfN -H 'Accept: application/x-ndjson' -X POST -d "$sweep_req" "http://$addr/v1/sweep" | wc -l)
[ "$lines" -eq 64 ] || { echo "smoke_serve: streamed sweep produced $lines lines, want 64" >&2; exit 1; }

echo "== X-Trace-Id -> /debug/trace span tree ==" >&2
trace_id="cafe0123456789abcdef0123456789ab"
curl -sf -H "X-Trace-Id: $trace_id" -X POST -d "$body" "http://$addr/v1/cost" >/dev/null
trace=$(curl -sf "http://$addr/debug/trace/$trace_id")
echo "$trace" | grep -q '"serve.request"' || { echo "smoke_serve: trace lacks serve.request root: $trace" >&2; exit 1; }
echo "$trace" | grep -q '"core.eval"' || { echo "smoke_serve: trace lacks core.eval child: $trace" >&2; exit 1; }

echo "== federated trace across nanocostfront ==" >&2
go build -o "$workdir/nanocostfront" ./cmd/nanocostfront
flog="$workdir/front.log"
"$workdir/nanocostfront" -addr 127.0.0.1:0 -replicas "$addr" 2>"$flog" &
fpid=$!
faddr=""
i=0
while [ $i -lt 100 ]; do
  faddr=$(sed -n 's/.*nanocostfront listening.*addr=\([^ ]*\).*/\1/p' "$flog" | head -n 1)
  [ -n "$faddr" ] && break
  kill -0 "$fpid" 2>/dev/null || { echo "smoke_serve: router died during startup:" >&2; cat "$flog" >&2; exit 1; }
  i=$((i + 1))
  sleep 0.1
done
[ -n "$faddr" ] || { echo "smoke_serve: no router listen address in log:" >&2; cat "$flog" >&2; exit 1; }
fed_id="feedface0123456789abcdef01234567"
curl -sf -H "X-Trace-Id: $fed_id" -X POST -d "$body" "http://$faddr/v1/cost" >/dev/null
fed=$(curl -sf "http://$faddr/debug/trace/$fed_id")
# One tree, spans from both processes: the router's root and hop span
# plus the replica's serve.request subtree fetched over federation.
for name in front.request front.attempt serve.request; do
  echo "$fed" | grep -q "\"$name\"" || { echo "smoke_serve: federated trace lacks $name span: $fed" >&2; exit 1; }
done
echo "$fed" | grep -q '"partial":true' && { echo "smoke_serve: federated trace flagged partial with the replica alive: $fed" >&2; exit 1; }
kill -TERM "$fpid"
rc=0
wait "$fpid" || rc=$?
fpid=""
[ "$rc" -eq 0 ] || { echo "smoke_serve: router exited with status $rc after SIGTERM:" >&2; cat "$flog" >&2; exit 1; }

echo "== X-Request-Id header/body match on a 400 ==" >&2
hdrs="$workdir/err_headers.txt"
status=$(curl -s -D "$hdrs" -o "$workdir/err.json" -w '%{http_code}' -X POST -d '{"bogus":true}' "http://$addr/v1/cost")
[ "$status" = "400" ] || { echo "smoke_serve: malformed body got HTTP $status, want 400" >&2; exit 1; }
req_id=$(sed -n 's/^[Xx]-[Rr]equest-[Ii]d: *//p' "$hdrs" | tr -d '\r')
[ -n "$req_id" ] || { echo "smoke_serve: 400 response carries no X-Request-Id" >&2; exit 1; }
grep -q "\"request_id\":\"$req_id\"" "$workdir/err.json" || { echo "smoke_serve: error body request_id != header $req_id: $(cat "$workdir/err.json")" >&2; exit 1; }

echo "== /metrics exposes span and runtime families ==" >&2
metrics=$(curl -sf "http://$addr/metrics")
for family in nanocostd_span_seconds go_goroutines nanocostd_pool_chunk_exec_seconds; do
  echo "$metrics" | grep -q "^# TYPE $family " || { echo "smoke_serve: /metrics lacks family $family" >&2; exit 1; }
done

echo "== pprof on the -debug-addr listener ==" >&2
debug_addr=$(sed -n 's/.*nanocostd debug listening.*addr=\([^ ]*\).*/\1/p' "$log" | head -n 1)
[ -n "$debug_addr" ] || { echo "smoke_serve: no debug listen address in log:" >&2; cat "$log" >&2; exit 1; }
curl -sf "http://$debug_addr/debug/pprof/" >/dev/null || { echo "smoke_serve: pprof index unreachable at $debug_addr" >&2; exit 1; }
# The profiler must stay off the service address.
status=$(curl -s -o /dev/null -w '%{http_code}' "http://$addr/debug/pprof/")
[ "$status" = "404" ] || { echo "smoke_serve: service address serves pprof (HTTP $status), want 404" >&2; exit 1; }

echo "== /v1/figures/4 ETag revalidation ==" >&2
etag=$(curl -sf -D - -o /dev/null "http://$addr/v1/figures/4" | sed -n 's/^[Ee][Tt]ag: *//p' | tr -d '\r')
[ -n "$etag" ] || { echo "smoke_serve: figure response carries no ETag" >&2; exit 1; }
status=$(curl -s -o /dev/null -w '%{http_code}' -H "If-None-Match: $etag" "http://$addr/v1/figures/4")
[ "$status" = "304" ] || { echo "smoke_serve: If-None-Match revalidation got HTTP $status, want 304" >&2; exit 1; }

echo "== /v1/jobs: 2x10^8-trial sharded defect job with progress ==" >&2
job_spec='{"kind":"defect","trials":200000000,"shards":64,"seed":77,"checkpoint":true,"defect":{"lambda":1.1,"alpha":2}}'
submit=$(curl -sf -X POST -d "$job_spec" "http://$addr/v1/jobs")
job_id=$(echo "$submit" | sed -n 's/.*"id":"\([0-9a-f]\{16\}\)".*/\1/p')
[ -n "$job_id" ] || { echo "smoke_serve: job submit returned no id: $submit" >&2; exit 1; }
i=0
state=""
while [ $i -lt 600 ]; do
  st=$(curl -sf "http://$addr/v1/jobs/$job_id")
  state=$(echo "$st" | sed -n 's/.*"state":"\([a-z]*\)".*/\1/p')
  [ "$state" != "running" ] && break
  i=$((i + 1))
  sleep 0.1
done
[ "$state" = "done" ] || { echo "smoke_serve: reference job ended in state '$state': $st" >&2; exit 1; }
echo "$st" | grep -q '"shards_done":64' || { echo "smoke_serve: reference job progress wrong: $st" >&2; exit 1; }
echo "$st" | grep -q '"trials_per_sec":' || { echo "smoke_serve: reference job reports no throughput: $st" >&2; exit 1; }
curl -sf "http://$addr/v1/jobs/$job_id/result" > "$workdir/job_ref.json"
grep -q '"trials":200000000' "$workdir/job_ref.json" || { echo "smoke_serve: bad job result: $(head -c 200 "$workdir/job_ref.json")" >&2; exit 1; }
# The job families must have moved in the telemetry.
metrics_now=$(curl -sf "http://$addr/metrics")
echo "$metrics_now" | grep -q 'nanocostd_jobs_total{state="completed"} [1-9]' || { echo "smoke_serve: jobs_total{completed} did not move" >&2; exit 1; }
shard_count=$(echo "$metrics_now" | awk '$1 == "nanocostd_job_shard_seconds_count" { print $2 }')
[ -n "$shard_count" ] && [ "${shard_count%.*}" -ge 64 ] || { echo "smoke_serve: job shard histogram count = $shard_count, want >= 64" >&2; exit 1; }

echo "== /v1/jobs NDJSON progress stream ==" >&2
small_spec='{"kind":"defect","trials":1000000,"shards":4,"seed":78,"defect":{"lambda":1.1}}'
small_id=$(curl -sf -X POST -d "$small_spec" "http://$addr/v1/jobs" | sed -n 's/.*"id":"\([0-9a-f]\{16\}\)".*/\1/p')
stream=$(curl -sfN -H 'Accept: application/x-ndjson' "http://$addr/v1/jobs/$small_id")
lines=$(echo "$stream" | wc -l)
[ "$lines" -ge 1 ] || { echo "smoke_serve: job stream produced no lines" >&2; exit 1; }
echo "$stream" | tail -n 1 | grep -q '"state":"done"' || { echo "smoke_serve: job stream did not end in done: $(echo "$stream" | tail -n 1)" >&2; exit 1; }

echo "== /v1/jobs/{id}/events timeline ==" >&2
events=$(curl -sf "http://$addr/v1/jobs/$small_id/events")
for typ in submitted shard_merged completed; do
  echo "$events" | grep -q "\"type\":\"$typ\"" || { echo "smoke_serve: events timeline lacks $typ: $events" >&2; exit 1; }
done

echo "== cancelled job's NDJSON event stream ends with cancelled ==" >&2
huge_spec='{"kind":"defect","trials":4000000000,"seed":9,"defect":{"lambda":0.9}}'
cancel_id=$(curl -sf -X POST -d "$huge_spec" "http://$addr/v1/jobs" | sed -n 's/.*"id":"\([0-9a-f]\{16\}\)".*/\1/p')
[ -n "$cancel_id" ] || { echo "smoke_serve: cancel-round submit returned no id" >&2; exit 1; }
curl -sf -X DELETE "http://$addr/v1/jobs/$cancel_id" >/dev/null
i=0
state=""
while [ $i -lt 100 ]; do
  state=$(curl -sf "http://$addr/v1/jobs/$cancel_id" | sed -n 's/.*"state":"\([a-z]*\)".*/\1/p')
  [ "$state" = "cancelled" ] && break
  i=$((i + 1))
  sleep 0.1
done
[ "$state" = "cancelled" ] || { echo "smoke_serve: job never reached cancelled (state=$state)" >&2; exit 1; }
ev_stream=$(curl -sfN -H 'Accept: application/x-ndjson' "http://$addr/v1/jobs/$cancel_id/events")
[ -n "$ev_stream" ] || { echo "smoke_serve: cancelled job produced an empty event stream" >&2; exit 1; }
echo "$ev_stream" | tail -n 1 | grep -q '"type":"cancelled"' || {
  echo "smoke_serve: event stream does not end with cancelled: $(echo "$ev_stream" | tail -n 1)" >&2
  exit 1
}

echo "== /v1/jobs kill -9 mid-job, resume must be byte-identical ==" >&2
jlog="$workdir/jobs_daemon.log"
"$bin" -addr 127.0.0.1:0 -job-dir "$workdir/jobsB" 2>"$jlog" &
jpid=$!
jaddr=$(wait_addr "$jlog" "$jpid")
curl -sf -X POST -d "$job_spec" "http://$jaddr/v1/jobs" >/dev/null
# Wait for a few shards to be checkpointed and merged (the timeline's
# shard_merged events), then pull the plug.
i=0
merged=0
while [ $i -lt 300 ]; do
  merged=$(curl -sf "http://$jaddr/v1/jobs/$job_id/events" | grep -o '"type":"shard_merged"' | wc -l)
  [ "$merged" -ge 3 ] && break
  i=$((i + 1))
  sleep 0.05
done
done_shards=$(curl -sf "http://$jaddr/v1/jobs/$job_id" | sed -n 's/.*"shards_done":\([0-9]*\).*/\1/p')
[ "$merged" -ge 3 ] || { echo "smoke_serve: job merged only $merged shards before kill window" >&2; exit 1; }
[ "${done_shards:-64}" -lt 64 ] || { echo "smoke_serve: job finished before the kill; enlarge the spec" >&2; exit 1; }
kill -9 "$jpid"
wait "$jpid" 2>/dev/null || true

"$bin" -addr 127.0.0.1:0 -job-dir "$workdir/jobsB" 2>"$jlog.2" &
jpid=$!
jaddr=$(wait_addr "$jlog.2" "$jpid")
resumed_id=$(curl -sf -X POST -d "$job_spec" "http://$jaddr/v1/jobs" | sed -n 's/.*"id":"\([0-9a-f]\{16\}\)".*/\1/p')
[ "$resumed_id" = "$job_id" ] || { echo "smoke_serve: resumed job id $resumed_id != $job_id (content hash drifted)" >&2; exit 1; }
i=0
state=""
while [ $i -lt 600 ]; do
  st=$(curl -sf "http://$jaddr/v1/jobs/$job_id")
  state=$(echo "$st" | sed -n 's/.*"state":"\([a-z]*\)".*/\1/p')
  [ "$state" != "running" ] && break
  i=$((i + 1))
  sleep 0.1
done
[ "$state" = "done" ] || { echo "smoke_serve: resumed job ended in state '$state': $st" >&2; exit 1; }
resumed=$(echo "$st" | sed -n 's/.*"shards_resumed":\([0-9]*\).*/\1/p')
[ -n "$resumed" ] && [ "$resumed" -ge 3 ] || { echo "smoke_serve: resumed run replayed only '${resumed:-0}' shards from the checkpoint: $st" >&2; exit 1; }
curl -sf "http://$jaddr/v1/jobs/$job_id/result" > "$workdir/job_resumed.json"
cmp -s "$workdir/job_ref.json" "$workdir/job_resumed.json" || {
  echo "smoke_serve: resumed result differs from uninterrupted run:" >&2
  diff "$workdir/job_ref.json" "$workdir/job_resumed.json" >&2 || true
  exit 1
}
# The resumed job's timeline is the job log replayed and continued: seqs
# start at 1 and rise by exactly 1 per line across the kill, and the
# killed run's merges come before checkpoint_resumed.
curl -sfN -H 'Accept: application/x-ndjson' "http://$jaddr/v1/jobs/$job_id/events" > "$workdir/job_events.ndjson"
awk '
  match($0, /"seq":[0-9]+/) == 0 || substr($0, RSTART + 6, RLENGTH - 6) + 0 != NR {
    printf "event line %d does not carry seq %d: %s\n", NR, NR, $0; bad = 1; exit
  }
  /"type":"checkpoint_resumed"/ && !resumed {
    resumed = 1
    if (merged < 3) { printf "%d shard_merged events before checkpoint_resumed, want >= 3\n", merged; bad = 1; exit }
  }
  /"type":"shard_merged"/ && !resumed { merged++ }
  END {
    if (!bad && !resumed) { print "no checkpoint_resumed event"; bad = 1 }
    if (bad) exit 1
  }' "$workdir/job_events.ndjson" >&2 || {
  echo "smoke_serve: resumed job timeline is not the killed run continued:" >&2
  head -c 2000 "$workdir/job_events.ndjson" >&2
  exit 1
}
kill -TERM "$jpid"
wait "$jpid" || { echo "smoke_serve: jobs daemon did not drain cleanly" >&2; exit 1; }
jpid=""
echo "smoke_serve: resumed result byte-identical to uninterrupted run ($resumed shards resumed)" >&2

echo "== SIGTERM drain ==" >&2
kill -TERM "$pid"
rc=0
wait "$pid" || rc=$?
pid=""
[ "$rc" -eq 0 ] || { echo "smoke_serve: daemon exited with status $rc after SIGTERM:" >&2; cat "$log" >&2; exit 1; }
grep -q "nanocostd stopped" "$log" || { echo "smoke_serve: no clean-stop log line:" >&2; cat "$log" >&2; exit 1; }

echo "smoke_serve: all checks passed" >&2
