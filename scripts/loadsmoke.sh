#!/bin/sh
# loadsmoke boots a throwaway itreed on a random port with a temp data
# directory and a debug listener, fires a short itreeload burst through
# group commit, and fails if any request failed, if the write queue is
# not drained afterwards (queue depth 0, some batches committed, none
# shed, and no drain goroutine left running), or if the daemon does not
# shut down cleanly. It is the end-to-end smoke test of group commit on
# the real binary.
set -eu

GO=${GO:-go}
DIR=$(mktemp -d)
LOG="$DIR/itreed.log"
trap 'kill "$PID" 2>/dev/null || true; wait "$PID" 2>/dev/null || true; rm -rf "$DIR"' EXIT

$GO build -o "$DIR/itreed" ./cmd/itreed
$GO build -o "$DIR/itreeload" ./cmd/itreeload

"$DIR/itreed" -addr 127.0.0.1:0 -debug-addr 127.0.0.1:0 -data-dir "$DIR/data" -journal-sync always >"$LOG" 2>&1 &
PID=$!

# Wait for the daemon to report its bound ports.
ADDR=""
DEBUG=""
for _ in $(seq 1 100); do
    ADDR=$(sed -n 's/^itreed: api listening on \(.*\)$/\1/p' "$LOG" | head -n1)
    DEBUG=$(sed -n 's/^itreed: debug listening on \(.*\)$/\1/p' "$LOG" | head -n1)
    [ -n "$ADDR" ] && [ -n "$DEBUG" ] && break
    kill -0 "$PID" 2>/dev/null || { echo "loadsmoke: itreed died during startup:"; cat "$LOG"; exit 1; }
    sleep 0.1
done
[ -n "$ADDR" ] && [ -n "$DEBUG" ] || { echo "loadsmoke: itreed never reported its ports:"; cat "$LOG"; exit 1; }

"$DIR/itreeload" -addr "http://$ADDR" -workers 4 -duration 2s -participants 32

# Every write has returned, so the default campaign's queue is empty,
# its batches committed, and nothing was shed.
METRICS=$(curl -fsS "http://$ADDR/metrics")
metric() {
    echo "$METRICS" | awk -v m="$1{campaign=\"default\"}" '$1 == m { print $2 }'
}
DEPTH=$(metric itree_ingest_queue_depth)
BATCHES=$(metric itree_ingest_batches_total)
SHED=$(metric itree_ingest_shed_total)
[ "$DEPTH" = 0 ] || { echo "loadsmoke: itree_ingest_queue_depth = '$DEPTH' after the burst, want 0" >&2; exit 1; }
[ -n "$BATCHES" ] && [ "$BATCHES" -gt 0 ] || { echo "loadsmoke: itree_ingest_batches_total = '$BATCHES', want > 0" >&2; exit 1; }
[ "$SHED" = 0 ] || { echo "loadsmoke: itree_ingest_shed_total = '$SHED', want 0" >&2; exit 1; }

# The drainer exits once it finds the queue empty: give it up to 1s.
DRAINING=1
for _ in $(seq 1 10); do
    curl -fsS "http://$DEBUG/debug/pprof/goroutine?debug=1" | grep -q 'internal/server.(\*Server).drain' || { DRAINING=0; break; }
    sleep 0.1
done
[ "$DRAINING" = 0 ] || { echo "loadsmoke: a drain goroutine outlived the burst:" >&2; curl -fsS "http://$DEBUG/debug/pprof/goroutine?debug=1" >&2; exit 1; }

# Graceful shutdown must drain within the daemon's own timeout.
kill -TERM "$PID"
wait "$PID" || { echo "loadsmoke: itreed exited non-zero:"; cat "$LOG"; exit 1; }
grep -q 'itreed: drained' "$LOG" || { echo "loadsmoke: no clean drain in log:"; cat "$LOG"; exit 1; }
echo "loadsmoke: OK ($BATCHES batches)"
