#!/bin/sh
# auditsmoke boots a real itreed with the online audit service enabled
# and drives the Sybil-detection contract end to end on the real
# binaries: an adversarial itreeload mix (organic growth + injected
# Sybil arrangements with ground truth) must have every planted
# arrangement matched by a finding and quarantine nobody honest; an
# honest-only mix on a second campaign must quarantine nobody at all,
# and once its commit version stops moving a scan must be skipped; and
# the quarantine state must come back byte-identically after kill -9
# plus restart. Run with RACE=1 to build the daemon with the race
# detector (CI does).
set -eu

GO=${GO:-go}
DIR=$(mktemp -d)
LOG="$DIR/itreed.log"
DPID=""
trap 'kill -9 "$DPID" 2>/dev/null || true; wait "$DPID" 2>/dev/null || true; rm -rf "$DIR"' EXIT

BUILDFLAGS=""
[ "${RACE:-0}" = "1" ] && BUILDFLAGS="-race"
$GO build $BUILDFLAGS -o "$DIR/itreed" ./cmd/itreed
$GO build -o "$DIR/itreeload" ./cmd/itreeload

wait_addr() { # logfile pid -> prints bound api address
    _addr=""
    for _ in $(seq 1 100); do
        _addr=$(sed -n 's/^itreed: api listening on \(.*\)$/\1/p' "$1" | head -n1)
        [ -n "$_addr" ] && break
        kill -0 "$2" 2>/dev/null || { echo "auditsmoke: itreed died during startup:" >&2; cat "$1" >&2; exit 1; }
        sleep 0.1
    done
    [ -n "$_addr" ] || { echo "auditsmoke: itreed never reported its port:" >&2; cat "$1" >&2; exit 1; }
    echo "$_addr"
}

# -journal-sync always: the kill -9 check below asserts that every
# acknowledged write — including the auditor's quarantine records — is
# on disk the moment the client saw 200. start_daemon sets DPID, so it
# must run in the main shell (never inside a command substitution).
start_daemon() {
    "$DIR/itreed" -addr 127.0.0.1:0 -data-dir "$DIR/data" \
        -audit-interval 10s -audit-quarantine -journal-sync always >"$LOG" 2>&1 &
    DPID=$!
}
start_daemon
ADDR=$(wait_addr "$LOG" "$DPID")

curl -fsS -X POST -d '{"id":"adv"}' "http://$ADDR/v1/campaigns" >/dev/null
curl -fsS -X POST -d '{"id":"clean"}' "http://$ADDR/v1/campaigns" >/dev/null

# audit_field <output> <key>: pull one counter off the parseable
# "itreeload: audit ..." report line.
audit_field() {
    echo "$1" | sed -n "s/.*[ =]$2=\([0-9][0-9]*\).*/\1/p" | head -n1
}

# Adversarial mix: organic growth with spliced ε-chains, deep chains,
# and star bursts whose ground truth itreeload knows.
ADV=$("$DIR/itreeload" -addr "http://$ADDR" -campaign adv -scenario adversarial \
    -seed 7 -participants 64 -workers 4 -duration 1s -audit-report)
echo "$ADV"
MATCHED=$(echo "$ADV" | sed -n 's/.*matched_injections=\([0-9]*\)\/\([0-9]*\).*/\1/p')
PLANTED=$(echo "$ADV" | sed -n 's/.*matched_injections=\([0-9]*\)\/\([0-9]*\).*/\2/p')
QUAR=$(audit_field "$ADV" quarantined)
QHONEST=$(audit_field "$ADV" quarantined_honest)
[ -n "$MATCHED" ] || { echo "auditsmoke: no audit report line in adversarial run" >&2; exit 1; }
[ "$PLANTED" -ge 1 ] || { echo "auditsmoke: adversarial scenario injected nothing" >&2; exit 1; }
[ "$MATCHED" = "$PLANTED" ] || { echo "auditsmoke: auditor matched $MATCHED/$PLANTED planted arrangements" >&2; exit 1; }
[ "$QUAR" -ge 1 ] || { echo "auditsmoke: auditor quarantined nothing ($QUAR)" >&2; exit 1; }
[ "$QHONEST" = "0" ] || { echo "auditsmoke: $QHONEST honest participants quarantined" >&2; exit 1; }

# Honest-only mix: organic growth, no injections. Zero quarantines —
# chain-shaped advisory findings are fine, auto-quarantine firing on an
# honest tree is not.
CLEAN=$("$DIR/itreeload" -addr "http://$ADDR" -campaign clean -scenario honest \
    -seed 3 -participants 48 -workers 4 -duration 1s -audit-report)
echo "$CLEAN"
CQUAR=$(audit_field "$CLEAN" quarantined)
CQHONEST=$(audit_field "$CLEAN" quarantined_honest)
[ -n "$CQUAR" ] || { echo "auditsmoke: no audit report line in honest run" >&2; exit 1; }
[ "$CQUAR" = "0" ] || { echo "auditsmoke: honest-only campaign has $CQUAR quarantined" >&2; exit 1; }
[ "$CQHONEST" = "0" ] || { echo "auditsmoke: honest-only campaign quarantined $CQHONEST honest names" >&2; exit 1; }

# Idle skip: with no write since, the first scan brings the auditor up
# to the latest version and the second has nothing to read.
curl -fsS -X POST "http://$ADDR/v1/campaigns/clean/audit/scan" >/dev/null
IDLE=$(curl -fsS -X POST "http://$ADDR/v1/campaigns/clean/audit/scan")
echo "$IDLE" | grep -q '"skipped":true' || { echo "auditsmoke: idle honest campaign still scanning: $IDLE" >&2; exit 1; }

# The audit service is on the metrics surface.
METRICS=$(curl -fsS "http://$ADDR/metrics")
for M in itree_audit_scans_total itree_audit_findings_total itree_audit_quarantined_nodes; do
    echo "$METRICS" | grep -q "$M" || { echo "auditsmoke: /metrics missing $M" >&2; exit 1; }
done

# Quarantine durability: kill -9, restart over the same data dir, and
# every payout — quarantine masking included — is byte-identical.
WANT_ADV=$(curl -fsS "http://$ADDR/v1/campaigns/adv/rewards")
WANT_CLEAN=$(curl -fsS "http://$ADDR/v1/campaigns/clean/rewards")
WANT_AUDIT=$(curl -fsS "http://$ADDR/v1/campaigns/adv/audit" | sed -n 's/.*"quarantined":\(\[[^]]*\]\).*/\1/p')
kill -9 "$DPID"
wait "$DPID" 2>/dev/null || true

start_daemon
ADDR=$(wait_addr "$LOG" "$DPID")
GOT_ADV=$(curl -fsS "http://$ADDR/v1/campaigns/adv/rewards")
GOT_CLEAN=$(curl -fsS "http://$ADDR/v1/campaigns/clean/rewards")
GOT_AUDIT=$(curl -fsS "http://$ADDR/v1/campaigns/adv/audit" | sed -n 's/.*"quarantined":\(\[[^]]*\]\).*/\1/p')
[ "$GOT_ADV" = "$WANT_ADV" ] || {
    echo "auditsmoke: adversarial rewards changed across kill -9 restart" >&2
    echo "before: $WANT_ADV" >&2
    echo "after:  $GOT_ADV" >&2
    exit 1
}
[ "$GOT_CLEAN" = "$WANT_CLEAN" ] || {
    echo "auditsmoke: honest rewards changed across kill -9 restart" >&2
    exit 1
}
[ "$GOT_AUDIT" = "$WANT_AUDIT" ] || {
    echo "auditsmoke: quarantine set changed across kill -9 restart: $WANT_AUDIT -> $GOT_AUDIT" >&2
    exit 1
}

kill -TERM "$DPID"
wait "$DPID" || { echo "auditsmoke: itreed exited non-zero:" >&2; cat "$LOG" >&2; exit 1; }
grep -q 'itreed: drained' "$LOG" || { echo "auditsmoke: itreed did not drain:" >&2; cat "$LOG" >&2; exit 1; }
echo "auditsmoke: OK (matched $MATCHED/$PLANTED, quarantined $QUAR, honest clean)"
