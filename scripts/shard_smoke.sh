#!/usr/bin/env bash
# Sharded serving-tier smoke test: start three `xbench serve --shard=i/3
# --journal` primaries and a journal-shipped read replica of shard 0,
# front them with `xbench route` (fail-fast scatters; reads fail over to
# the replica), and drive the whole cluster through the front-end's
# single address:
#
#   1. a mixed read/write remote sweep against the healthy cluster,
#   2. kill -9 shard 0's primary and require a read sweep to keep
#      answering through the replica failover mid-outage,
#   3. restart shard 0 from its journal (the banner must report replayed
#      updates) and run another mixed sweep,
#   4. SIGTERM the router and require a graceful exit 0 with the
#      per-shard metrics report in its drain output.
#
# CI runs this (workflow job `shard-smoke`); `make shard-smoke` locally.
set -euo pipefail

cd "$(dirname "$0")/.."
tmp="$(mktemp -d)"
bin="$tmp/xbench"
trap 'kill $(jobs -p) 2>/dev/null || true; rm -rf "$tmp"' EXIT

go build -o "$bin" ./cmd/xbench

# await_banner LOG PID SED_PATTERN -> prints the captured address
await_banner() {
    local log=$1 pid=$2 pat=$3 addr=""
    for _ in $(seq 1 100); do
        addr=$(sed -n "$pat" "$log")
        [ -n "$addr" ] && { echo "$addr"; return 0; }
        kill -0 "$pid" 2>/dev/null || { echo "process died during startup:" >&2; cat "$log" >&2; return 1; }
        sleep 0.2
    done
    echo "no banner in $log:" >&2; cat "$log" >&2; return 1
}

# Three journaled shard primaries, each loading its ring partition of the
# same deterministically generated database.
declare -a shard_addr shard_pid
for i in 0 1 2; do
    "$bin" serve --engine=x-hive --class=dcmd --size=small --shard="$i/3" \
        --journal="$tmp/shard$i.journal" --addr=127.0.0.1:0 >"$tmp/s$i.log" 2>&1 &
    shard_pid[$i]=$!
done
for i in 0 1 2; do
    shard_addr[$i]=$(await_banner "$tmp/s$i.log" "${shard_pid[$i]}" 's/^serving .* on \([0-9.:]*\) .*/\1/p')
    echo "shard $i on ${shard_addr[$i]}"
done

# A read replica of shard 0, fed by its shipped journal.
"$bin" serve --engine=x-hive --class=dcmd --size=small --shard=0/3 \
    --replica-of="${shard_addr[0]}" --addr=127.0.0.1:0 >"$tmp/r0.log" 2>&1 &
replica_pid=$!
replica_addr=$(await_banner "$tmp/r0.log" "$replica_pid" 's/^replica of .* on \([0-9.:]*\)$/\1/p')
echo "replica of shard 0 on $replica_addr"

# The router front-end: one address for the whole cluster. Each shard
# loaded its own partition (--shard); the router loads nothing.
"$bin" route --class=dcmd \
    --shards="${shard_addr[0]}+$replica_addr,${shard_addr[1]},${shard_addr[2]}" \
    --addr=127.0.0.1:0 --drain-timeout=10s >"$tmp/route.log" 2>&1 &
router_pid=$!
front=$(await_banner "$tmp/route.log" "$router_pid" 's/^routing .* on \([0-9.:]*\) .*/\1/p')
echo "router on $front"

# 1. Mixed read/write sweep against the healthy cluster.
"$bin" throughput --remote="$front" --class=dcmd \
    --clients=1,2 --ops=20 --update-fraction=0.2 --format=json | grep -q '"qps"' \
    || { echo "healthy mixed sweep produced no report"; exit 1; }
echo "healthy mixed sweep OK"

# 2. Whole-shard death: kill -9 shard 0's primary mid-life. Reads, routed
# and scattered, must keep answering through the replica failover.
kill -9 "${shard_pid[0]}"
wait "${shard_pid[0]}" 2>/dev/null || true
"$bin" throughput --remote="$front" --class=dcmd \
    --clients=2 --ops=15 --format=json | grep -q '"qps"' \
    || { echo "read sweep with a dead shard produced no report"; exit 1; }
echo "dead-shard read sweep OK"

# 3. Restart shard 0 on the same port from its journal.
"$bin" serve --engine=x-hive --class=dcmd --size=small --shard=0/3 \
    --journal="$tmp/shard0.journal" --addr="${shard_addr[0]}" >"$tmp/s0b.log" 2>&1 &
shard_pid[0]=$!
await_banner "$tmp/s0b.log" "${shard_pid[0]}" 's/^serving .* on \([0-9.:]*\) .*/\1/p' >/dev/null
replayed=$(sed -n 's/^recovered .*: \([0-9]*\) journaled updates replayed.*/\1/p' "$tmp/s0b.log")
[ -n "$replayed" ] || { echo "shard 0 restart printed no recovery banner:"; cat "$tmp/s0b.log"; exit 1; }
[ "$replayed" -gt 0 ] || { echo "shard 0 journal replayed 0 updates after a mixed sweep"; exit 1; }
echo "shard 0 restarted with $replayed journaled updates replayed"

# The router's breaker for the killed primary stays open for its cooldown
# (500 ms), and until a probe closes it shard 0's reads go to the replica,
# which trails the primary by a journal pull and an apply: the mixed
# sweep's read-your-write probe would race them. Wait the cooldown out so
# reads are back on the primary.
sleep 1

# --update-seq-base: the first sweep consumed the low update-document
# sequences and a mid-cycle step can leave documents behind, so the
# re-run starts its U1 names past anything already placed.
"$bin" throughput --remote="$front" --class=dcmd \
    --clients=1,2 --ops=20 --update-fraction=0.2 --update-seq-base=500000 \
    --format=json | grep -q '"qps"' \
    || { echo "post-recovery mixed sweep produced no report"; exit 1; }
echo "post-recovery mixed sweep OK"

# 4. Graceful drain: SIGTERM the router, require exit 0 and the per-shard
# metrics report in its output.
kill -TERM "$router_pid"
router_status=0
wait "$router_pid" || router_status=$?
cat "$tmp/route.log"
if [ "$router_status" -ne 0 ]; then
    echo "route exited $router_status after SIGTERM (want graceful 0)"
    exit 1
fi
grep -q 'drained' "$tmp/route.log" || { echo "route exited without draining"; exit 1; }
grep -Eq '^shard +routed' "$tmp/route.log" || { echo "route drain printed no per-shard metrics"; exit 1; }
echo "shard smoke OK"
