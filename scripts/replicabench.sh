#!/bin/sh
# replicabench measures what read replicas buy on a serving surface
# that is also taking writes. A constant contribute burst runs against
# the primary while a closed-loop read-only itreeload measures
# leaderboard throughput twice: first against the single node serving
# both roles, then fanned out across two followers replicating from
# the same primary. The two points are recorded as BENCH_<n>.json in
# the go-bench schema of BENCH_0.json-BENCH_5.json (name, ns/op, B/op,
# allocs/op per point) so the trajectory is comparable across commits.
#
#   OUT=BENCH_3.json sh scripts/replicabench.sh
#
# Reads on the single node queue behind the group-commit lock (held
# across the journal fsync), so they collapse under write load;
# follower applies happen off any fsync path, so fanned-out reads keep
# their idle-time throughput even on one machine.
set -eu

GO=${GO:-go}
OUT=${OUT:-}
READ_WORKERS=${READ_WORKERS:-8}
WRITE_WORKERS=${WRITE_WORKERS:-4}
DURATION=${DURATION:-3s}
PARTICIPANTS=${PARTICIPANTS:-256}
DIR=$(mktemp -d)
PIDS=""
trap 'for p in $PIDS; do kill "$p" 2>/dev/null || true; done; for p in $PIDS; do wait "$p" 2>/dev/null || true; done; rm -rf "$DIR"' EXIT

$GO build -o "$DIR/itreed" ./cmd/itreed
$GO build -o "$DIR/itreeload" ./cmd/itreeload

wait_addr() { # logfile -> prints bound api address
    _addr=""
    for _ in $(seq 1 100); do
        _addr=$(sed -n 's/^itreed: api listening on \(.*\)$/\1/p' "$1" | head -n1)
        [ -n "$_addr" ] && break
        sleep 0.1
    done
    [ -n "$_addr" ] || { echo "replicabench: itreed never reported its port:" >&2; cat "$1" >&2; exit 1; }
    echo "$_addr"
}

start_primary() { # datadir logfile
    "$DIR/itreed" -addr 127.0.0.1:0 -data-dir "$1" >"$2" 2>&1 &
    PIDS="$PIDS $!"
    wait_addr "$2"
}

start_follower() { # primaryurl logfile
    "$DIR/itreed" -addr 127.0.0.1:0 -role follower -primary "$1" >"$2" 2>&1 &
    PIDS="$PIDS $!"
    wait_addr "$2"
}

wait_converged() { # primaryurl followerurl
    _want=$(curl -fsS "$1/v1/rewards")
    for _ in $(seq 1 100); do
        [ "$(curl -sS "$2/v1/rewards" || true)" = "$_want" ] && return 0
        sleep 0.1
    done
    echo "replicabench: follower $2 never converged" >&2
    exit 1
}

# measure_reads <primaryurl> <readtargets>: run the write burst against
# the primary and, inside its window, the closed-loop read-only load
# against the read targets. Prints "ok_count throughput".
measure_reads() {
    "$DIR/itreeload" -addr "$1" -workers "$WRITE_WORKERS" -duration 5s \
        -participants "$PARTICIPANTS" -read-frac 0 -join-frac 0 >/dev/null &
    _wpid=$!
    sleep 0.3
    "$DIR/itreeload" -addr "$1" -read-targets "$2" -workers "$READ_WORKERS" \
        -duration "$DURATION" -participants 1 -read-frac 1 |
        tee /dev/stderr |
        awk '/^itreeload: [0-9]+ ok,/ { ok = $2 }
             /^itreeload: throughput/ { thr = $3 }
             END { print ok, thr }'
    wait "$_wpid"
}

echo "replicabench: single node (reads share the write-serving daemon)" >&2
PADDR=$(start_primary "$DIR/single" "$DIR/single.log")
"$DIR/itreeload" -addr "http://$PADDR" -workers "$WRITE_WORKERS" -duration 1s \
    -participants "$PARTICIPANTS" -read-frac 0 -join-frac 0 >/dev/null # seed + warm
SINGLE=$(measure_reads "http://$PADDR" "http://$PADDR")

echo "replicabench: 1 primary + 2 followers (reads fan out over the followers)" >&2
PADDR=$(start_primary "$DIR/fan" "$DIR/fan.log")
F1=$(start_follower "http://$PADDR" "$DIR/f1.log")
F2=$(start_follower "http://$PADDR" "$DIR/f2.log")
"$DIR/itreeload" -addr "http://$PADDR" -workers "$WRITE_WORKERS" -duration 1s \
    -participants "$PARTICIPANTS" -read-frac 0 -join-frac 0 >/dev/null
wait_converged "http://$PADDR" "http://$F1"
wait_converged "http://$PADDR" "http://$F2"
FAN=$(measure_reads "http://$PADDR" "http://$F1,http://$F2")

# Emit the two points in that go-bench schema: ns/op is the
# steady-state inter-completion time (1e9 / reads-per-second), so lower
# is better and ratios line up with the rest of the BENCH trajectory.
if [ -z "$OUT" ]; then
    N=0
    while [ -e "BENCH_$N.json" ]; do N=$((N + 1)); done
    OUT="BENCH_$N.json"
fi
echo "$SINGLE $FAN" | awk -v out="$OUT" -v gover="$($GO env GOVERSION)" \
    -v goos="$($GO env GOOS)" -v goarch="$($GO env GOARCH)" \
    -v procs="$(nproc)" -v now="$(date +%s)" \
    -v rw="$READ_WORKERS" -v ww="$WRITE_WORKERS" -v dur="$DURATION" '{
    single_ok = $1; single_thr = $2; fan_ok = $3; fan_thr = $4
    printf "{\n" > out
    printf "  \"created_unix\": %d,\n", now > out
    printf "  \"go_version\": \"%s\",\n", gover > out
    printf "  \"goos\": \"%s\",\n", goos > out
    printf "  \"goarch\": \"%s\",\n", goarch > out
    printf "  \"gomaxprocs\": %d,\n", procs > out
    printf "  \"bench\": \"replicabench -read-workers %s -write-workers %s -duration %s\",\n", rw, ww, dur > out
    printf "  \"count\": 1,\n" > out
    printf "  \"package\": \"scripts/replicabench.sh\",\n" > out
    printf "  \"benchmarks\": [\n" > out
    printf "    {\n" > out
    printf "      \"name\": \"BenchmarkReplicaReadScaling/under-write-load/nodes=1\",\n" > out
    printf "      \"iterations\": %d,\n", single_ok > out
    printf "      \"ns_per_op\": %.0f,\n", 1e9 / single_thr > out
    printf "      \"bytes_per_op\": 0,\n" > out
    printf "      \"allocs_per_op\": 0\n" > out
    printf "    },\n" > out
    printf "    {\n" > out
    printf "      \"name\": \"BenchmarkReplicaReadScaling/under-write-load/followers=2\",\n" > out
    printf "      \"iterations\": %d,\n", fan_ok > out
    printf "      \"ns_per_op\": %.0f,\n", 1e9 / fan_thr > out
    printf "      \"bytes_per_op\": 0,\n" > out
    printf "      \"allocs_per_op\": 0\n" > out
    printf "    }\n" > out
    printf "  ]\n" > out
    printf "}\n" > out
    printf "replicabench: single-node %.1f reads/s, 2-follower fan-out %.1f reads/s (%.2fx), wrote %s\n",
        single_thr, fan_thr, fan_thr / single_thr, out
}'
