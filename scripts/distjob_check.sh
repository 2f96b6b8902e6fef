#!/bin/sh
# distjob_check.sh — the distributed-job gate: build nanocostd, run a
# 2×10⁸-trial defect job on a single plain replica to record the
# reference result bytes, then run the identical spec on a two-replica
# tier — coordinator A (shard-lease coordinator + local worker) and
# peer worker B pulling shards over HTTP — kill -9 worker B as it takes
# a lease after one of its shard uploads landed, and require the merged
# distributed result byte-identical to the single-replica reference. The
# determinism contract (fixed chunks on jump-ahead streams,
# canonical-order fold) is what makes byte equality the correct bar; the
# kill proves expired leases are reclaimed and re-run without disturbing
# it. The coordinator's event timeline must then tell the same story:
# leases granted to worker B, its partial accepted, its orphaned leases
# expired and reclaimed after the kill, and the job completed.
set -eu
cd "$(dirname "$0")/.."

command -v curl >/dev/null 2>&1 || { echo "distjob_check: curl not found" >&2; exit 1; }

TRIALS=${DISTJOB_TRIALS:-200000000}
SHARDS=${DISTJOB_SHARDS:-16}
LEASE_TTL=${DISTJOB_LEASE_TTL:-2s}
spec='{"kind":"defect","trials":'$TRIALS',"shards":'$SHARDS',"seed":42,"defect":{"lambda":0.9}}'

workdir=$(mktemp -d)
cleanup() {
  for p in "${refpid:-}" "${apid:-}" "${bpid:-}"; do
    [ -n "$p" ] && kill -9 "$p" 2>/dev/null || true
  done
  rm -rf "$workdir"
}
trap cleanup EXIT

# wait_addr PATTERN LOGFILE PID: poll LOGFILE for a bound address logged
# as "...PATTERN...addr=HOST:PORT".
wait_addr() {
  wa_pat=$1; wa_log=$2; wa_pid=$3; wa_addr=""
  i=0
  while [ $i -lt 100 ]; do
    wa_addr=$(sed -n "s/.*$wa_pat.*addr=\([^ ]*\).*/\1/p" "$wa_log" | head -n 1)
    [ -n "$wa_addr" ] && break
    kill -0 "$wa_pid" 2>/dev/null || { echo "distjob_check: process died during startup:" >&2; cat "$wa_log" >&2; exit 1; }
    i=$((i + 1))
    sleep 0.1
  done
  [ -n "$wa_addr" ] || { echo "distjob_check: no listen address in log:" >&2; cat "$wa_log" >&2; exit 1; }
  echo "$wa_addr"
}

# submit ADDR: POST the spec, print the job id.
submit() {
  sj_id=$(curl -sf -X POST -d "$spec" "http://$1/v1/jobs" | sed -n 's/.*"id":"\([0-9a-f]\{16\}\)".*/\1/p')
  [ -n "$sj_id" ] || { echo "distjob_check: job submit to $1 returned no id" >&2; exit 1; }
  echo "$sj_id"
}

# wait_done ADDR ID SECONDS: poll job status until it leaves "running".
wait_done() {
  wd_addr=$1; wd_id=$2; wd_limit=$3
  i=0
  while [ $i -lt $((wd_limit * 10)) ]; do
    wd_state=$(curl -sf "http://$wd_addr/v1/jobs/$wd_id" | sed -n 's/.*"state":"\([a-z]*\)".*/\1/p')
    [ "$wd_state" = "running" ] || { echo "$wd_state"; return 0; }
    i=$((i + 1))
    sleep 0.1
  done
  echo "distjob_check: job $wd_id still running after ${wd_limit}s" >&2
  exit 1
}

echo "== build nanocostd ==" >&2
go build -o "$workdir/nanocostd" ./cmd/nanocostd

echo "== single-replica reference run ($TRIALS trials, $SHARDS shards) ==" >&2
"$workdir/nanocostd" -addr 127.0.0.1:0 2>"$workdir/ref.log" &
refpid=$!
refaddr=$(wait_addr "nanocostd listening" "$workdir/ref.log" "$refpid")
refid=$(submit "$refaddr")
state=$(wait_done "$refaddr" "$refid" 120)
[ "$state" = "done" ] || { echo "distjob_check: reference job ended '$state'" >&2; cat "$workdir/ref.log" >&2; exit 1; }
curl -sf "http://$refaddr/v1/jobs/$refid/result" > "$workdir/ref.json"
kill -TERM "$refpid" && wait "$refpid" || true
refpid=""
echo "distjob_check: reference result recorded ($(wc -c < "$workdir/ref.json") bytes)" >&2

echo "== two-replica distributed run (coordinator A + peer worker B, lease TTL $LEASE_TTL) ==" >&2
"$workdir/nanocostd" -addr 127.0.0.1:0 -distribute -job-dir "$workdir/jobs" \
  -lease-ttl "$LEASE_TTL" -worker-id coord-a 2>"$workdir/a.log" &
apid=$!
aaddr=$(wait_addr "nanocostd listening" "$workdir/a.log" "$apid")
"$workdir/nanocostd" -addr 127.0.0.1:0 -peers "$aaddr" -worker-id worker-b 2>"$workdir/b.log" &
bpid=$!
wait_addr "nanocostd listening" "$workdir/b.log" "$bpid" >/dev/null
distid=$(submit "$aaddr")
[ "$distid" = "$refid" ] || { echo "distjob_check: job id differs across replicas: $refid vs $distid" >&2; exit 1; }

# Kill worker B while it holds a lease. B re-leases only after its whole
# batch is uploaded, so a kill timed by its first accepted upload can
# land between batches, when B holds no lease and none can expire.
# Instead follow the coordinator's timeline as NDJSON and kill B on its
# first lease_acquired after one of its partial_accepted events: B has
# then contributed real shards and holds a fresh lease nothing will
# upload. follow_kill prints the number of B's accepted uploads when it
# killed B, and nothing if the stream ended first (the server closes a
# stream at its request timeout, so the caller follows again).
follow_kill() {
  curl -sN -H 'Accept: application/x-ndjson' "http://$aaddr/v1/jobs/$distid/events" | {
    uploads=0
    while IFS= read -r ev; do
      case $ev in
        *'"type":"partial_accepted","shard":'*',"owner":"worker-b"'*)
          uploads=$((uploads + 1)) ;;
        *'"type":"lease_acquired","shard":'*',"owner":"worker-b"'*)
          if [ "$uploads" -ge 1 ]; then
            kill -9 "$bpid"
            echo "$uploads"
            exit 0
          fi ;;
      esac
    done
  }
}
echo "== follow the job's events; kill -9 worker B on its first lease after an accepted upload ==" >&2
uploads=""
i=0
while [ $i -lt 10 ]; do
  uploads=$(follow_kill)
  [ -n "$uploads" ] && break
  state=$(curl -sf "http://$aaddr/v1/jobs/$distid" | sed -n 's/.*"state":"\([a-z]*\)".*/\1/p')
  [ "$state" = "running" ] || { echo "distjob_check: job finished ($state) before worker B took a lease after an accepted upload" >&2; cat "$workdir/b.log" >&2; exit 1; }
  i=$((i + 1))
done
[ -n "$uploads" ] || { echo "distjob_check: worker B took no lease after an accepted upload" >&2; cat "$workdir/b.log" >&2; exit 1; }
bpid=""
state=$(curl -sf "http://$aaddr/v1/jobs/$distid" | sed -n 's/.*"state":"\([a-z]*\)".*/\1/p')
echo "distjob_check: killed worker B as it took a lease, after $uploads accepted upload(s); job state=$state" >&2

state=$(wait_done "$aaddr" "$distid" 180)
[ "$state" = "done" ] || { echo "distjob_check: distributed job ended '$state'" >&2; cat "$workdir/a.log" >&2; exit 1; }
curl -sf "http://$aaddr/v1/jobs/$distid/result" > "$workdir/dist.json"

echo "== distributed result must be byte-identical to the reference ==" >&2
cmp -s "$workdir/ref.json" "$workdir/dist.json" || {
  echo "distjob_check: distributed result differs from single-replica reference:" >&2
  diff "$workdir/ref.json" "$workdir/dist.json" >&2 || true
  exit 1
}

echo "== events timeline must explain the kill ==" >&2
events=$(curl -sf "http://$aaddr/v1/jobs/$distid/events")
for typ in submitted lease_acquired partial_accepted shard_merged completed; do
  echo "$events" | grep -q "\"type\":\"$typ\"" || { echo "distjob_check: timeline lacks $typ: $events" >&2; exit 1; }
done
# Worker B must appear as a lease holder and partial uploader, and its
# orphaned leases must show up as expired then reclaimed under its name
# — that is the kill, narrated.
echo "$events" | grep -Eq '"type":"lease_acquired","shard":[0-9]+,"owner":"worker-b"' \
  || { echo "distjob_check: timeline shows no lease granted to worker-b: $events" >&2; exit 1; }
echo "$events" | grep -Eq '"type":"partial_accepted","shard":[0-9]+,"owner":"worker-b"' \
  || { echo "distjob_check: timeline shows no partial accepted from worker-b: $events" >&2; exit 1; }
echo "$events" | grep -Eq '"type":"lease_expired","shard":[0-9]+,"owner":"worker-b"' \
  || { echo "distjob_check: timeline shows no expired worker-b lease after the kill: $events" >&2; exit 1; }
echo "$events" | grep -Eq '"type":"lease_reclaimed","shard":[0-9]+,"owner":"worker-b"' \
  || { echo "distjob_check: timeline shows no reclaimed worker-b lease after the kill: $events" >&2; exit 1; }
echo "distjob_check: timeline narrates the kill (worker-b leases expired and reclaimed, job completed)" >&2

kill -TERM "$apid"
rc=0
wait "$apid" || rc=$?
apid=""
[ "$rc" -eq 0 ] || { echo "distjob_check: coordinator exited with status $rc" >&2; exit 1; }

echo "distjob_check: all gates passed ($TRIALS trials across 2 replicas, kill -9 mid-job, byte-identical result)" >&2
