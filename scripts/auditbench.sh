#!/bin/sh
# auditbench measures what the online audit service costs the write
# path. The same closed-loop contribute burst runs twice against a real
# itreed over an organically grown honest population: first with the
# auditor off, then with it scanning aggressively (250ms interval,
# auto-quarantine armed) throughout the measured window. The two points
# are recorded as BENCH_<n>.json, in the go-bench schema of
# BENCH_0.json-BENCH_5.json, and the run fails if the auditor costs
# more than MAX_OVERHEAD_PCT (default 5) percent of contribute
# throughput.
#
#   OUT=BENCH_4.json sh scripts/auditbench.sh
#
# Scans stay cheap on the hot path by design: under the server's read
# lock the auditor only reads the commit version and clones the whole
# tree, then detects shapes and runs the counterfactual probe entirely
# off-lock, so contribute batches only ever contend with the version
# read and the clone.
set -eu

GO=${GO:-go}
OUT=${OUT:-}
WORKERS=${WORKERS:-4}
DURATION=${DURATION:-4s}
PARTICIPANTS=${PARTICIPANTS:-256}
MAX_OVERHEAD_PCT=${MAX_OVERHEAD_PCT:-5}
DIR=$(mktemp -d)
# measure runs in a command substitution, a subshell, so the daemons'
# pids go through a file for the exit trap to find. The daemons are not
# this shell's children, so the trap polls until each has exited (its
# shutdown checkpoint writes under $DIR) before removing $DIR.
trap 'for p in $(cat "$DIR/pids" 2>/dev/null); do kill "$p" 2>/dev/null || true; while kill -0 "$p" 2>/dev/null; do sleep 0.1; done; done; rm -rf "$DIR"' EXIT

$GO build -o "$DIR/itreed" ./cmd/itreed
$GO build -o "$DIR/itreeload" ./cmd/itreeload

wait_addr() { # logfile -> prints bound api address
    _addr=""
    for _ in $(seq 1 100); do
        _addr=$(sed -n 's/^itreed: api listening on \(.*\)$/\1/p' "$1" | head -n1)
        [ -n "$_addr" ] && break
        sleep 0.1
    done
    [ -n "$_addr" ] || { echo "auditbench: itreed never reported its port:" >&2; cat "$1" >&2; exit 1; }
    echo "$_addr"
}

# measure <datadir> <logfile> [audit flags...]: boot a daemon, grow an
# honest population, run the measured contribute burst, print its
# throughput in ops/s.
measure() {
    _data=$1
    _log=$2
    shift 2
    "$DIR/itreed" -addr 127.0.0.1:0 -data-dir "$_data" "$@" >"$_log" 2>&1 &
    echo $! >>"$DIR/pids"
    _addr=$(wait_addr "$_log")
    "$DIR/itreeload" -addr "http://$_addr" -scenario honest -seed 11 \
        -workers "$WORKERS" -duration "$DURATION" -participants "$PARTICIPANTS" \
        -read-frac 0 -join-frac 0 |
        tee /dev/stderr |
        awk '/^itreeload: [0-9]+ ok,/ { ok = $2 }
             /^itreeload: throughput/ { thr = $3 }
             END { print ok, thr }'
}

echo "auditbench: baseline (audit service off)" >&2
BASE=$(measure "$DIR/off" "$DIR/off.log")

echo "auditbench: auditor on (250ms scans, auto-quarantine armed)" >&2
AUDIT=$(measure "$DIR/on" "$DIR/on.log" -audit-interval 250ms -audit-quarantine)

# Scans must actually have run inside the measured window, or the
# comparison proves nothing.
SCANS=$(curl -fsS "http://$(wait_addr "$DIR/on.log")/metrics" |
    sed -n 's/^itree_audit_scans_total{[^}]*} \([0-9][0-9]*\)$/\1/p' | head -n1)
[ -n "$SCANS" ] && [ "$SCANS" -ge 4 ] || {
    echo "auditbench: auditor only scanned ${SCANS:-0} times during the run; raise -duration" >&2
    exit 1
}

if [ -z "$OUT" ]; then
    N=0
    while [ -e "BENCH_$N.json" ]; do N=$((N + 1)); done
    OUT="BENCH_$N.json"
fi
echo "$BASE $AUDIT" | awk -v out="$OUT" -v gover="$($GO env GOVERSION)" \
    -v goos="$($GO env GOOS)" -v goarch="$($GO env GOARCH)" \
    -v procs="$(nproc)" -v now="$(date +%s)" -v scans="$SCANS" \
    -v w="$WORKERS" -v dur="$DURATION" -v maxpct="$MAX_OVERHEAD_PCT" '{
    base_ok = $1; base_thr = $2; audit_ok = $3; audit_thr = $4
    printf "{\n" > out
    printf "  \"created_unix\": %d,\n", now > out
    printf "  \"go_version\": \"%s\",\n", gover > out
    printf "  \"goos\": \"%s\",\n", goos > out
    printf "  \"goarch\": \"%s\",\n", goarch > out
    printf "  \"gomaxprocs\": %d,\n", procs > out
    printf "  \"bench\": \"auditbench -workers %s -duration %s\",\n", w, dur > out
    printf "  \"count\": 1,\n" > out
    printf "  \"package\": \"scripts/auditbench.sh\",\n" > out
    printf "  \"benchmarks\": [\n" > out
    printf "    {\n" > out
    printf "      \"name\": \"BenchmarkAuditOverhead/contribute/audit=off\",\n" > out
    printf "      \"iterations\": %d,\n", base_ok > out
    printf "      \"ns_per_op\": %.0f,\n", 1e9 / base_thr > out
    printf "      \"bytes_per_op\": 0,\n" > out
    printf "      \"allocs_per_op\": 0\n" > out
    printf "    },\n" > out
    printf "    {\n" > out
    printf "      \"name\": \"BenchmarkAuditOverhead/contribute/audit=on-250ms\",\n" > out
    printf "      \"iterations\": %d,\n", audit_ok > out
    printf "      \"ns_per_op\": %.0f,\n", 1e9 / audit_thr > out
    printf "      \"bytes_per_op\": 0,\n" > out
    printf "      \"allocs_per_op\": 0\n" > out
    printf "    }\n" > out
    printf "  ]\n" > out
    printf "}\n" > out
    pct = (base_thr - audit_thr) / base_thr * 100
    printf "auditbench: baseline %.1f ops/s, auditor-on %.1f ops/s (%.2f%% overhead, %d scans), wrote %s\n",
        base_thr, audit_thr, pct, scans, out
    exit (pct > maxpct) ? 1 : 0
}' || { echo "auditbench: auditor overhead exceeds ${MAX_OVERHEAD_PCT}%" >&2; exit 1; }
