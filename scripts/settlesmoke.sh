#!/bin/sh
# settlesmoke boots a real itreed with epoch settlement enabled and
# drives the payout-accounting contract end to end on the real
# binaries: an itreeload settlement storm (settles racing contributes,
# every settled share double-claimed at the epoch boundary) must report
# zero failures with its claim bursts splitting exactly into wins and
# 409 conflicts; a deterministic settle/claim/duplicate-claim sequence
# must answer 200/200/409; every settled epoch must satisfy the ledger
# invariant R(epoch) <= pool(epoch); and the whole ledger must come
# back byte-identically after kill -9 plus restart, with duplicate
# claims still refused. Run with RACE=1 to build the daemon with the
# race detector (CI does).
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
        kill -0 "$2" 2>/dev/null || { echo "settlesmoke: itreed died during startup:" >&2; cat "$1" >&2; exit 1; }
        sleep 0.1
    done
    [ -n "$_addr" ] || { echo "settlesmoke: itreed never reported its port:" >&2; cat "$1" >&2; exit 1; }
    echo "$_addr"
}

# -journal-sync always: the kill -9 check below asserts that every
# acknowledged settle and claim is on disk the moment the client saw
# 200. The epoch ticker runs so the -epoch-interval wiring is exercised
# under race; idle ticks journal nothing, so the ledger stays stable
# while nobody contributes. start_daemon sets DPID, so it must run in
# the main shell (never inside a command substitution).
start_daemon() {
    "$DIR/itreed" -addr 127.0.0.1:0 -data-dir "$DIR/data" \
        -epoch-interval 300ms -journal-sync always >"$LOG" 2>&1 &
    DPID=$!
}
start_daemon
ADDR=$(wait_addr "$LOG" "$DPID")

curl -fsS -X POST -d '{"id":"storm"}' "http://$ADDR/v1/campaigns" >/dev/null
curl -fsS -X POST -d '{"id":"manual"}' "http://$ADDR/v1/campaigns" >/dev/null

# Settlement storm: contributes flow while epochs settle every 100ms
# and each settled share is claimed twice concurrently. itreeload exits
# non-zero on any settle/claim failure or an asymmetric burst split.
STORM=$("$DIR/itreeload" -addr "http://$ADDR" -campaign storm -scenario settlement \
    -seed 11 -participants 32 -workers 4 -duration 1s -settle-every 100ms)
echo "$STORM"
EPOCHS_SETTLED=$(echo "$STORM" | sed -n 's/.*settlement epochs=\([0-9]*\).*/\1/p')
[ -n "$EPOCHS_SETTLED" ] || { echo "settlesmoke: no settlement report line" >&2; exit 1; }
[ "$EPOCHS_SETTLED" -ge 1 ] || { echo "settlesmoke: the storm settled no epochs" >&2; exit 1; }

# Drain the storm campaign's leftover accrual (contributions that
# landed after itreeload's last settle), so every later ticker tick is
# idle and the ledger holds still for the byte comparisons below.
# 200 (we drained it) and 409 (the ticker already did) are both fine.
curl -s -o /dev/null -X POST "http://$ADDR/v1/campaigns/storm/epochs/settle"

# Deterministic ledger: join, contribute, settle, claim, re-claim. The
# duplicate claim is the idempotency contract — 409, never 200.
curl -fsS -X POST -d '{"name":"alice"}' "http://$ADDR/v1/campaigns/manual/join" >/dev/null
curl -fsS -X POST -d '{"name":"bob","sponsor":"alice"}' "http://$ADDR/v1/campaigns/manual/join" >/dev/null
curl -fsS -X POST -d '{"name":"bob","amount":4}' "http://$ADDR/v1/campaigns/manual/contribute" >/dev/null
SCODE=$(curl -s -o /dev/null -w '%{http_code}' -X POST "http://$ADDR/v1/campaigns/manual/epochs/settle")
case "$SCODE" in
    200 | 409) ;; # 409: the epoch ticker settled the accrual first
    *) echo "settlesmoke: settle answered HTTP $SCODE" >&2; exit 1 ;;
esac
CODE=$(curl -s -o /dev/null -w '%{http_code}' -X POST -d '{"name":"bob","epoch":1}' \
    "http://$ADDR/v1/campaigns/manual/claims")
[ "$CODE" = "200" ] || { echo "settlesmoke: first claim answered HTTP $CODE, want 200" >&2; exit 1; }
CODE=$(curl -s -o /dev/null -w '%{http_code}' -X POST -d '{"name":"bob","epoch":1}' \
    "http://$ADDR/v1/campaigns/manual/claims")
[ "$CODE" = "409" ] || { echo "settlesmoke: duplicate claim answered HTTP $CODE, want 409" >&2; exit 1; }

# Ledger invariant: every settled epoch pays out no more than its pool,
# on both campaigns. The epoch list carries pool and settled per epoch.
check_invariant() { # campaign
    _body=$(curl -fsS "http://$ADDR/v1/campaigns/$1/epochs")
    echo "$_body" | awk -v RS='{' -v camp="$1" '
        /"epoch":/ && /"pool":/ {
            pool = ""; settled = ""
            if (match($0, /"pool": *[-0-9.eE+]+/))    { split(substr($0, RSTART, RLENGTH), a, ":"); pool = a[2] }
            if (match($0, /"settled": *[-0-9.eE+]+/)) { split(substr($0, RSTART, RLENGTH), a, ":"); settled = a[2] }
            if (pool != "" && settled != "" && settled + 0 > pool + 1e-9) {
                printf "settlesmoke: %s epoch violates R<=pool: settled=%s pool=%s\n", camp, settled, pool
                bad = 1
                exit 1
            }
            n++
        }
        END {
            if (bad) exit 1
            if (n == 0) { printf "settlesmoke: %s reported no settled epochs\n", camp; exit 1 }
        }
    ' || exit 1
}
check_invariant storm
check_invariant manual

# Pools accrue at the campaign's Phi, and /epochs reports it: the
# campaign was created with the default Phi of 0.5.
curl -fsS "http://$ADDR/v1/campaigns/manual/epochs" | grep -q '"budget_frac": *0.5' || {
    echo "settlesmoke: budget_frac is not the campaign's Phi 0.5" >&2
    exit 1
}

# The settlement subsystem is on the metrics surface.
METRICS=$(curl -fsS "http://$ADDR/metrics")
for M in itree_settle_epochs itree_settle_carry itree_claims_amount itree_settle_commits_total itree_claims_conflicts_total; do
    echo "$METRICS" | grep -q "$M" || { echo "settlesmoke: /metrics missing $M" >&2; exit 1; }
done

# Ledger durability: kill -9, restart over the same data dir, and the
# full settlement read surface — epoch tables, claims accounts — is
# byte-identical. The replayed ledger stays authoritative: duplicate
# claims are still refused.
WANT_STORM=$(curl -fsS "http://$ADDR/v1/campaigns/storm/epochs")
WANT_MANUAL=$(curl -fsS "http://$ADDR/v1/campaigns/manual/epochs")
WANT_CLAIMS=$(curl -fsS "http://$ADDR/v1/campaigns/manual/claims?name=bob")
kill -9 "$DPID"
wait "$DPID" 2>/dev/null || true

start_daemon
ADDR=$(wait_addr "$LOG" "$DPID")
GOT_STORM=$(curl -fsS "http://$ADDR/v1/campaigns/storm/epochs")
GOT_MANUAL=$(curl -fsS "http://$ADDR/v1/campaigns/manual/epochs")
GOT_CLAIMS=$(curl -fsS "http://$ADDR/v1/campaigns/manual/claims?name=bob")
[ "$GOT_STORM" = "$WANT_STORM" ] || {
    echo "settlesmoke: storm epoch ledger changed across kill -9 restart" >&2
    echo "before: $WANT_STORM" >&2
    echo "after:  $GOT_STORM" >&2
    exit 1
}
[ "$GOT_MANUAL" = "$WANT_MANUAL" ] || {
    echo "settlesmoke: manual epoch ledger changed across kill -9 restart" >&2
    exit 1
}
[ "$GOT_CLAIMS" = "$WANT_CLAIMS" ] || {
    echo "settlesmoke: claims account changed across kill -9 restart: $WANT_CLAIMS -> $GOT_CLAIMS" >&2
    exit 1
}
CODE=$(curl -s -o /dev/null -w '%{http_code}' -X POST -d '{"name":"bob","epoch":1}' \
    "http://$ADDR/v1/campaigns/manual/claims")
[ "$CODE" = "409" ] || { echo "settlesmoke: duplicate claim after restart answered HTTP $CODE, want 409" >&2; exit 1; }

kill -TERM "$DPID"
wait "$DPID" || { echo "settlesmoke: itreed exited non-zero:" >&2; cat "$LOG" >&2; exit 1; }
grep -q 'itreed: drained' "$LOG" || { echo "settlesmoke: itreed did not drain:" >&2; cat "$LOG" >&2; exit 1; }
echo "settlesmoke: OK ($EPOCHS_SETTLED storm epochs, ledger byte-stable across kill -9, duplicate claims refused)"
