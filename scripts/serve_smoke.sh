#!/usr/bin/env bash
# Serving-layer smoke test: start `xbench serve --journal` on a loopback
# port, run a two-client remote throughput sweep, a remote cold query
# (its page I/O must be above 0) and a remote update report against the
# database the server loaded, then kill -9 the server mid-life, restart it on the
# same port from the journal (the banner must report replayed updates),
# run another remote sweep, and finally SIGTERM and require a graceful
# (exit 0) drain.
# CI runs this (workflow job `serve-smoke`); `make smoke` runs it locally.
set -euo pipefail

cd "$(dirname "$0")/.."
bin="$(mktemp -d)/xbench"
log="$(mktemp)"
log2="$(mktemp)"
journal="$(mktemp -d)/updates.journal"
trap 'kill "$server_pid" 2>/dev/null || true; rm -rf "$(dirname "$bin")" "$(dirname "$journal")" "$log" "$log2"' EXIT

go build -o "$bin" ./cmd/xbench

# Port 0 => the kernel picks a free port; the serve banner names it.
"$bin" serve --engine=x-hive --class=dcmd --size=small --addr=127.0.0.1:0 \
    --journal="$journal" --max-inflight=16 --drain-timeout=10s >"$log" 2>&1 &
server_pid=$!

addr=""
for _ in $(seq 1 50); do
    addr=$(sed -n 's/^serving .* on \([0-9.:]*\) .*/\1/p' "$log")
    [ -n "$addr" ] && break
    kill -0 "$server_pid" 2>/dev/null || { echo "server died during startup:"; cat "$log"; exit 1; }
    sleep 0.2
done
[ -n "$addr" ] || { echo "server never printed its address:"; cat "$log"; exit 1; }
echo "serving on $addr"

"$bin" throughput --remote="$addr" --class=dcmd \
    --clients=1,2 --ops=20 --format=json | grep -q '"qps"' \
    || { echo "remote sweep produced no report"; exit 1; }

# A served query's page I/O is the difference of two OpPageIO reads
# around it; a cold Q5 reads pages, so it must print pageIO above 0.
q5=$("$bin" query --remote="$addr" --class=dcmd --q=5) \
    || { echo "remote query failed:"; echo "$q5"; exit 1; }
pages=$(printf '%s\n' "$q5" | sed -n 's/.* pageIO=\([0-9]*\) .*/\1/p')
[ -n "$pages" ] && [ "$pages" -gt 0 ] \
    || { echo "remote cold Q5 printed no page I/O above 0:"; echo "$q5"; exit 1; }
echo "remote cold Q5: pageIO=$pages"

"$bin" bench --view=updates --remote="$addr" --class=dcmd --sizes=small --repeat=2 | grep -q 'U3' \
    || { echo "remote update report produced no U3 row"; exit 1; }

# The crash leg: SIGKILL (no defers, no flushes), then restart on the SAME
# port from the same journal. Recovery must replay the acknowledged
# updates before the listener opens.
kill -9 "$server_pid"
wait "$server_pid" 2>/dev/null || true
cat "$log"

"$bin" serve --engine=x-hive --class=dcmd --size=small --addr="$addr" \
    --journal="$journal" --max-inflight=16 --drain-timeout=10s >"$log2" 2>&1 &
server_pid=$!

for _ in $(seq 1 50); do
    grep -q '^serving ' "$log2" && break
    kill -0 "$server_pid" 2>/dev/null || { echo "server died during journal restart:"; cat "$log2"; exit 1; }
    sleep 0.2
done
grep -q '^serving ' "$log2" || { echo "restarted server never came up:"; cat "$log2"; exit 1; }
replayed=$(sed -n 's/^recovered .*: \([0-9]*\) journaled updates replayed.*/\1/p' "$log2")
[ -n "$replayed" ] || { echo "restart printed no recovery banner:"; cat "$log2"; exit 1; }
[ "$replayed" -gt 0 ] || { echo "journal recovery replayed 0 updates after an update run"; exit 1; }
echo "restarted on $addr with $replayed journaled updates replayed"

"$bin" throughput --remote="$addr" --class=dcmd \
    --clients=1,2 --ops=20 --format=json | grep -q '"qps"' \
    || { echo "post-recovery remote sweep produced no report"; exit 1; }

kill -TERM "$server_pid"
server_status=0
wait "$server_pid" || server_status=$?
cat "$log2"
if [ "$server_status" -ne 0 ]; then
    echo "serve exited $server_status after SIGTERM (want graceful 0)"
    exit 1
fi
grep -q 'drained' "$log2" || { echo "serve exited without draining"; exit 1; }
echo "serve smoke OK"
