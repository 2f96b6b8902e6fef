#!/bin/sh
# slo_check.sh — the router SLO gate: build nanocostd, nanocostfront and
# loadgen; boot two replicas and one router on ephemeral ports; record
# reference response hashes straight from one replica; then require that
# (a) a pinned-rate open-loop run through the router stays inside the
# p99 budget with zero non-2xx and byte-identical responses, and (b) a
# kill -9 of the replica that owns the cost endpoint, delivered
# mid-load, leaves the SLO green — the survivors' responses must still
# match the reference hashes byte for byte. Finishes by checking the
# router benched the killed replica, that /readyz stayed ready, and
# that the surviving replica drains cleanly.
set -eu
cd "$(dirname "$0")/.."

command -v curl >/dev/null 2>&1 || { echo "slo_check: curl not found" >&2; exit 1; }

# The client-side p99 budget at the pinned rate, and the arrival rate
# itself. Generous enough for a loaded CI box, tight enough that a
# retry storm or a dead router would blow it.
RPS=${SLO_RPS:-150}
P99_BUDGET=${SLO_P99:-500ms}

workdir=$(mktemp -d)
cleanup() {
  for p in "${apid:-}" "${bpid:-}" "${fpid:-}" "${lgpid:-}"; do
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
    kill -0 "$wa_pid" 2>/dev/null || { echo "slo_check: process died during startup:" >&2; cat "$wa_log" >&2; exit 1; }
    i=$((i + 1))
    sleep 0.1
  done
  [ -n "$wa_addr" ] || { echo "slo_check: no listen address in log:" >&2; cat "$wa_log" >&2; exit 1; }
  echo "$wa_addr"
}

echo "== build nanocostd, nanocostfront, loadgen ==" >&2
go build -o "$workdir/nanocostd" ./cmd/nanocostd
go build -o "$workdir/nanocostfront" ./cmd/nanocostfront
go build -o "$workdir/loadgen" ./cmd/loadgen

echo "== boot 2 replicas ==" >&2
"$workdir/nanocostd" -addr 127.0.0.1:0 2>"$workdir/a.log" &
apid=$!
"$workdir/nanocostd" -addr 127.0.0.1:0 2>"$workdir/b.log" &
bpid=$!
aaddr=$(wait_addr "nanocostd listening" "$workdir/a.log" "$apid")
baddr=$(wait_addr "nanocostd listening" "$workdir/b.log" "$bpid")
echo "slo_check: replicas at $aaddr and $baddr" >&2

echo "== replica /readyz ==" >&2
curl -sf "http://$aaddr/readyz" | grep -q '"status":"ready"' || { echo "slo_check: replica A not ready" >&2; exit 1; }

echo "== reference hashes from a single replica ==" >&2
"$workdir/loadgen" -base "http://$aaddr" -duration 2s -concurrency 2 -max-non2xx 0 > "$workdir/ref.out"
grep '^hash ' "$workdir/ref.out" | sort > "$workdir/ref.hashes"
[ -s "$workdir/ref.hashes" ] || { echo "slo_check: reference run produced no hash lines:" >&2; cat "$workdir/ref.out" >&2; exit 1; }

echo "== boot nanocostfront over both replicas ==" >&2
# A long bench keeps the killed replica out of rotation for the rest of
# the run (and visible as benched on /frontz afterwards).
"$workdir/nanocostfront" -addr 127.0.0.1:0 -replicas "$aaddr,$baddr" -bench 60s 2>"$workdir/f.log" &
fpid=$!
faddr=$(wait_addr "nanocostfront listening" "$workdir/f.log" "$fpid")
echo "slo_check: router at $faddr" >&2
curl -sf "http://$faddr/healthz" | grep -q '"status":"ok"' || { echo "slo_check: bad router healthz" >&2; exit 1; }
curl -sf "http://$faddr/readyz" | grep -q '"status":"ready"' || { echo "slo_check: router not ready" >&2; exit 1; }
frontz=$(curl -sf "http://$faddr/frontz")
echo "$frontz" | grep -q "$aaddr" && echo "$frontz" | grep -q "$baddr" || { echo "slo_check: frontz lacks a replica: $frontz" >&2; exit 1; }

echo "== steady-state SLO: ${RPS}rps open loop, p99 <= $P99_BUDGET, zero non-2xx ==" >&2
"$workdir/loadgen" -base "http://$faddr" -duration 3s -rps "$RPS" -max-p99 "$P99_BUDGET" -max-non2xx 0 > "$workdir/steady.out" \
  || { echo "slo_check: steady-state SLO failed:" >&2; cat "$workdir/steady.out" >&2; exit 1; }
grep '^hash ' "$workdir/steady.out" | sort > "$workdir/steady.hashes"
cmp -s "$workdir/ref.hashes" "$workdir/steady.hashes" || {
  echo "slo_check: routed responses differ from single-replica reference:" >&2
  diff "$workdir/ref.hashes" "$workdir/steady.hashes" >&2 || true
  exit 1
}
sed -n '1,2p' "$workdir/steady.out" >&2

echo "== kill the cost-endpoint owner mid-load ==" >&2
cost_body='{"process":{"lambda_um":0.18,"yield":0.4},"design":{"transistors":10e6,"sd":300},"wafers":5000}'
owner=$(curl -s -D - -o /dev/null -X POST -d "$cost_body" "http://$faddr/v1/cost" | sed -n 's/^[Xx]-[Bb]ackend: *//p' | tr -d '\r')
case "$owner" in
  "$aaddr") victim=$apid; victim_addr=$aaddr ;;
  "$baddr") victim=$bpid; victim_addr=$baddr ;;
  *) echo "slo_check: unknown X-Backend '$owner'" >&2; exit 1 ;;
esac
echo "slo_check: cost endpoint owned by $victim_addr, killing it mid-run" >&2
"$workdir/loadgen" -base "http://$faddr" -duration 4s -rps "$RPS" -max-p99 "$P99_BUDGET" -max-non2xx 0 > "$workdir/kill.out" &
lgpid=$!
sleep 1.5
kill -9 "$victim"
rc=0
wait "$lgpid" || rc=$?
lgpid=""
[ "$rc" -eq 0 ] || { echo "slo_check: SLO violated across the replica kill:" >&2; cat "$workdir/kill.out" >&2; exit 1; }
grep '^hash ' "$workdir/kill.out" | sort > "$workdir/kill.hashes"
cmp -s "$workdir/ref.hashes" "$workdir/kill.hashes" || {
  echo "slo_check: failover responses differ from reference:" >&2
  diff "$workdir/ref.hashes" "$workdir/kill.hashes" >&2 || true
  exit 1
}
sed -n '1,2p' "$workdir/kill.out" >&2
if [ "$victim" = "$apid" ]; then apid=""; survivor=$bpid; else bpid=""; survivor=$apid; fi

echo "== router state after the kill ==" >&2
curl -sf "http://$faddr/readyz" | grep -q '"status":"ready"' || { echo "slo_check: router lost readiness with a live replica" >&2; exit 1; }
curl -sf "http://$faddr/frontz" | grep -q "{\"addr\":\"$victim_addr\",\"benched\":true}" || {
  echo "slo_check: killed replica not benched on /frontz: $(curl -sf "http://$faddr/frontz")" >&2
  exit 1
}
curl -sf "http://$faddr/metrics" | grep -q "front_replica_up{replica=\"$victim_addr\"} 0" || {
  echo "slo_check: front_replica_up did not drop for the killed replica" >&2
  exit 1
}

echo "== survivor drains cleanly ==" >&2
kill -TERM "$survivor"
rc=0
wait "$survivor" || rc=$?
[ "$rc" -eq 0 ] || { echo "slo_check: surviving replica exited with status $rc" >&2; exit 1; }
if [ "$survivor" = "${bpid:-none}" ]; then bpid=""; else apid=""; fi

kill -TERM "$fpid"
rc=0
wait "$fpid" || rc=$?
fpid=""
[ "$rc" -eq 0 ] || { echo "slo_check: router exited with status $rc" >&2; exit 1; }

echo "slo_check: all gates passed (p99 budget $P99_BUDGET at ${RPS}rps, byte-identical across failover)" >&2
