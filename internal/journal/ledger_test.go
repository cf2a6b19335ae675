package journal

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"
)

// settleFixtureEvents returns a log exercising every ledger
// interaction: two settled epochs with carry-over, claims against both.
func settleFixtureEvents() []Event {
	return []Event{
		{Seq: 1, Kind: KindJoin, Name: "alice"},
		{Seq: 2, Kind: KindJoin, Name: "bob", Sponsor: "alice"},
		{Seq: 3, Kind: KindContribute, Name: "bob", Amount: 10},
		{Seq: 4, Kind: KindSettle, Epoch: 1, Pool: 5, CTotal: 10,
			Rewards: []RewardShare{{Name: "alice", Amount: 2}, {Name: "bob", Amount: 1.5}}},
		{Seq: 5, Kind: KindClaim, Name: "bob", Epoch: 1, Amount: 1.5},
		{Seq: 6, Kind: KindContribute, Name: "alice", Amount: 4},
		{Seq: 7, Kind: KindSettle, Epoch: 2, Pool: 3.5, CTotal: 14,
			Rewards: []RewardShare{{Name: "alice", Amount: 3.5}}},
		{Seq: 8, Kind: KindClaim, Name: "alice", Epoch: 1, Amount: 2},
		{Seq: 9, Kind: KindClaim, Name: "alice", Epoch: 2, Amount: 3.5},
	}
}

// TestSettleClaimRoundTripBothFormats round-trips the settle/claim
// records through both encodings: binary journal records, which the
// Writer appends and Read replays, and the JSON-lines export form of
// NewEncoderMode, which `itree convert` reads back line by line. In
// each the decoded events equal the originals and re-encoding them
// reproduces the bytes.
func TestSettleClaimRoundTripBothFormats(t *testing.T) {
	events := settleFixtureEvents()
	t.Run("binary", func(t *testing.T) {
		var log bytes.Buffer
		w := NewWriter(&log, 1)
		for _, e := range events {
			e.Seq = 0
			if _, err := appendOne(w, e); err != nil {
				t.Fatalf("append %+v: %v", e, err)
			}
		}
		got, err := Read(bytes.NewReader(log.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		checkSettleRoundTrip(t, log.Bytes(), got, events, ModeBinary)
	})
	t.Run("json", func(t *testing.T) {
		var export bytes.Buffer
		enc := NewEncoderMode(&export, ModeJSON)
		for _, e := range events {
			if err := enc.Encode(e); err != nil {
				t.Fatalf("encode %+v: %v", e, err)
			}
		}
		var got []Event
		for _, line := range bytes.SplitAfter(export.Bytes(), []byte("\n")) {
			if len(line) == 0 {
				continue
			}
			var e Event
			if err := json.Unmarshal(line, &e); err != nil {
				t.Fatalf("export line %q: %v", line, err)
			}
			got = append(got, e)
		}
		checkSettleRoundTrip(t, export.Bytes(), got, events, ModeJSON)
	})
}

// checkSettleRoundTrip requires got to equal want, and re-encoding got
// in mode to reproduce encoded byte for byte (the replication property,
// now for settle/claim too).
func checkSettleRoundTrip(t *testing.T, encoded []byte, got, want []Event, mode Mode) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("decoded %d events, want %d", len(got), len(want))
	}
	for i := range got {
		if !got[i].Equal(want[i]) {
			t.Fatalf("event %d = %+v, want %+v", i, got[i], want[i])
		}
	}
	var reenc bytes.Buffer
	enc := NewEncoderMode(&reenc, mode)
	for _, e := range got {
		if err := enc.Encode(e); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(encoded, reenc.Bytes()) {
		t.Fatalf("re-encoded %v log differs from original", mode)
	}
}

func TestReplayBuildsLedger(t *testing.T) {
	st, err := Replay(nil, settleFixtureEvents())
	if err != nil {
		t.Fatal(err)
	}
	l := st.Ledger
	if l.Epochs() != 2 {
		t.Fatalf("Epochs() = %d, want 2", l.Epochs())
	}
	if cPrev, carry := l.AccrualBasis(); cPrev != 14 || carry != 0 {
		t.Fatalf("AccrualBasis() = %v, %v, want 14, 0", cPrev, carry)
	}
	if c := l.CarryOut(1); c != 1.5 {
		t.Fatalf("CarryOut(1) = %v, want 1.5", c)
	}
	if got := l.SettledOf("alice"); got != 5.5 {
		t.Fatalf("SettledOf(alice) = %v, want 5.5", got)
	}
	if got := l.ClaimedOf("alice"); got != 5.5 {
		t.Fatalf("ClaimedOf(alice) = %v, want 5.5", got)
	}
	if got := l.ClaimedAmount(1); got != 3.5 {
		t.Fatalf("ClaimedAmount(1) = %v, want 3.5", got)
	}
	if !l.HasClaimed(1, "bob") || l.HasClaimed(2, "bob") {
		t.Fatal("claim flags wrong")
	}
	se, ok := l.Epoch(1)
	if !ok {
		t.Fatal("Epoch(1) missing")
	}
	// Claimed preserves journal arrival order: bob first (seq 5), then
	// alice (seq 8) — the order every recovery path reproduces.
	if len(se.Claimed) != 2 || se.Claimed[0] != "bob" || se.Claimed[1] != "alice" {
		t.Fatalf("Epoch(1).Claimed = %v, want [bob alice]", se.Claimed)
	}
}

func TestReplayRejectsLedgerViolations(t *testing.T) {
	base := settleFixtureEvents()[:4] // through the first settle
	cases := []struct {
		name string
		e    Event
		want string
	}{
		{"epoch out of order", Event{Kind: KindSettle, Epoch: 3, Pool: 1, CTotal: 10}, "out of order"},
		{"pool overdrawn", Event{Kind: KindSettle, Epoch: 2, Pool: 1, CTotal: 12,
			Rewards: []RewardShare{{Name: "alice", Amount: 2}}}, "overdraws pool"},
		{"ctotal regression", Event{Kind: KindSettle, Epoch: 2, Pool: 1, CTotal: 9}, "regresses"},
		{"share for unknown", Event{Kind: KindSettle, Epoch: 2, Pool: 1, CTotal: 10,
			Rewards: []RewardShare{{Name: "mallory", Amount: 1}}}, "unknown"},
		{"shares not ascending", Event{Kind: KindSettle, Epoch: 2, Pool: 4, CTotal: 12,
			Rewards: []RewardShare{{Name: "bob", Amount: 1}, {Name: "alice", Amount: 1}}}, "ascending"},
		{"claim unsettled epoch", Event{Kind: KindClaim, Name: "bob", Epoch: 2, Amount: 1}, "unsettled"},
		{"claim without share", Event{Kind: KindClaim, Name: "bob", Epoch: 1, Amount: 1}, ""},
		{"claim amount mismatch", Event{Kind: KindClaim, Name: "alice", Epoch: 1, Amount: 2.0000001}, "share is"},
		{"join with epoch", Event{Kind: KindJoin, Name: "carol", Epoch: 1}, "ledger fields"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			e := tc.e
			e.Seq = 5
			_, err := Replay(nil, append(append([]Event(nil), base...), e))
			if err == nil {
				t.Fatalf("replay accepted %+v", e)
			}
			if tc.want != "" && !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
	// The same claim twice is the idempotency core: second apply fails.
	dup := Event{Seq: 6, Kind: KindClaim, Name: "bob", Epoch: 1, Amount: 1.5}
	first := Event{Seq: 5, Kind: KindClaim, Name: "bob", Epoch: 1, Amount: 1.5}
	if _, err := Replay(nil, append(append([]Event(nil), base...), first, dup)); err == nil {
		t.Fatal("replay accepted a duplicate claim")
	} else if !strings.Contains(err.Error(), "duplicate claim") {
		t.Fatalf("duplicate claim error = %q", err)
	}
}

func TestLedgerSnapshotRoundTrip(t *testing.T) {
	st, err := Replay(nil, settleFixtureEvents())
	if err != nil {
		t.Fatal(err)
	}
	epochs := st.Ledger.Snapshot()
	rebuilt, err := LedgerFromEpochs(epochs)
	if err != nil {
		t.Fatal(err)
	}
	if rebuilt.Epochs() != st.Ledger.Epochs() {
		t.Fatalf("rebuilt %d epochs, want %d", rebuilt.Epochs(), st.Ledger.Epochs())
	}
	for _, name := range []string{"alice", "bob"} {
		if rebuilt.SettledOf(name) != st.Ledger.SettledOf(name) {
			t.Fatalf("SettledOf(%s) drifted through snapshot", name)
		}
		if rebuilt.ClaimedOf(name) != st.Ledger.ClaimedOf(name) {
			t.Fatalf("ClaimedOf(%s) drifted through snapshot", name)
		}
	}
	if c1, c2 := rebuilt.CarryOut(1), st.Ledger.CarryOut(1); c1 != c2 {
		t.Fatalf("CarryOut drifted: %v != %v", c1, c2)
	}
	// A corrupt snapshot — claim of a share that does not exist — is
	// rejected, not silently absorbed.
	bad := st.Ledger.Snapshot()
	bad[0].Claimed = append(bad[0].Claimed, "mallory")
	if _, err := LedgerFromEpochs(bad); err == nil {
		t.Fatal("LedgerFromEpochs accepted a claim without a share")
	}
	// Empty ledgers snapshot to nil so pre-settlement snapshot bytes
	// stay identical to older releases.
	if NewLedger().Snapshot() != nil {
		t.Fatal("empty ledger snapshot not nil")
	}
}

// settledLedger returns a ledger holding one settled epoch that ran up
// to cTotal, granted shares and left carry unallocated.
func settledLedger(t *testing.T, cTotal, carry float64, shares ...RewardShare) *Ledger {
	t.Helper()
	pool := carry
	for _, r := range shares {
		pool += r.Amount
	}
	l := NewLedger()
	if err := l.ApplySettle(Event{Kind: KindSettle, Epoch: 1, Pool: pool, CTotal: cTotal, Rewards: shares}); err != nil {
		t.Fatal(err)
	}
	if got := l.CarryOut(1); got != carry {
		t.Fatalf("fixture carry = %v, want %v", got, carry)
	}
	return l
}

func TestLedgerSettleGrantsDeltasAscending(t *testing.T) {
	l := NewLedger()
	served := []RewardShare{{"carol", 3}, {"alice", 2}, {"bob", 1}}
	ev, capped, ok := l.Settle(0.5, 20, served)
	if !ok {
		t.Fatal("Settle found nothing to settle")
	}
	if ev.Kind != KindSettle || ev.Epoch != 1 || ev.Pool != 10 || ev.CTotal != 20 || capped != 0 {
		t.Fatalf("event = %+v, capped %d", ev, capped)
	}
	want := []RewardShare{{Name: "alice", Amount: 2}, {Name: "bob", Amount: 1}, {Name: "carol", Amount: 3}}
	if len(ev.Rewards) != len(want) {
		t.Fatalf("shares = %v, want %v", ev.Rewards, want)
	}
	for i := range want {
		if ev.Rewards[i] != want[i] {
			t.Fatalf("share %d = %v, want %v", i, ev.Rewards[i], want[i])
		}
	}
	if err := l.ApplySettle(ev); err != nil {
		t.Fatalf("settle record fails replay: %v", err)
	}
	if l.SettledAmount(1) != 6 || l.CarryOut(1) != 4 {
		t.Fatalf("settled %v, carry %v; want 6 and 4", l.SettledAmount(1), l.CarryOut(1))
	}
}

func TestLedgerSettleCapsAtPool(t *testing.T) {
	l := NewLedger()
	ev, capped, ok := l.Settle(0.1, 100, []RewardShare{{"alice", 6}, {"bob", 7}})
	if !ok {
		t.Fatal("Settle found nothing to settle")
	}
	// Pool is 10: alice takes her full 6, bob is capped to the 4 left,
	// and the pool drains to exactly zero.
	if len(ev.Rewards) != 2 || ev.Rewards[0].Amount != 6 || ev.Rewards[1].Amount != 4 || capped != 1 {
		t.Fatalf("shares = %v, capped %d", ev.Rewards, capped)
	}
	// The record must replay cleanly: the budget invariant holds by
	// construction.
	if err := l.ApplySettle(ev); err != nil {
		t.Fatalf("settle record fails replay: %v", err)
	}
	if l.CarryOut(1) != 0 {
		t.Fatalf("replayed carry = %v, want 0", l.CarryOut(1))
	}
}

func TestLedgerSettleDeltasAgainstSettled(t *testing.T) {
	l := settledLedger(t, 20, 0.5, RewardShare{"alice", 2}, RewardShare{"bob", 5})
	ev, _, ok := l.Settle(0.5, 30, []RewardShare{{"alice", 3.5}, {"bob", 5}, {"carol", 1}})
	if !ok {
		t.Fatal("Settle found nothing to settle")
	}
	// Pool = 0.5·10 + 0.5 = 5.5. Alice's delta is 1.5, bob's 0 (fully
	// settled), carol's 1.
	if ev.Epoch != 2 || ev.Pool != 5.5 {
		t.Fatalf("epoch %d pool %v, want 2 and 5.5", ev.Epoch, ev.Pool)
	}
	if len(ev.Rewards) != 2 || ev.Rewards[0] != (RewardShare{Name: "alice", Amount: 1.5}) ||
		ev.Rewards[1] != (RewardShare{Name: "carol", Amount: 1}) {
		t.Fatalf("shares = %v", ev.Rewards)
	}
	if err := l.ApplySettle(ev); err != nil {
		t.Fatalf("settle record fails replay: %v", err)
	}
	if l.CarryOut(2) != 3 {
		t.Fatalf("carry = %v, want 3", l.CarryOut(2))
	}
}

func TestLedgerSettleNothingToSettle(t *testing.T) {
	// No contribution growth, no deltas: skip the epoch entirely.
	l := settledLedger(t, 4, 1, RewardShare{"alice", 2})
	if _, _, ok := l.Settle(0.5, 4, []RewardShare{{"alice", 2}}); ok {
		t.Fatal("Settle settled an idle epoch")
	}
	// A reward decrease (quarantine imposed after settlement) grants
	// nothing and never claws back.
	if _, _, ok := l.Settle(0.5, 4, []RewardShare{{"alice", 1}}); ok {
		t.Fatal("Settle settled a clawback")
	}
	// Contribution growth alone settles (the pool must advance even if
	// every grantable delta is zero — e.g. the growth happened inside a
	// quarantined subtree).
	ev, _, ok := l.Settle(0.5, 6, []RewardShare{{"alice", 2}})
	if !ok {
		t.Fatal("Settle skipped an epoch with accrual")
	}
	if len(ev.Rewards) != 0 || ev.Pool != 2 {
		t.Fatalf("ev = %+v", ev)
	}
	if err := l.ApplySettle(ev); err != nil {
		t.Fatalf("settle record fails replay: %v", err)
	}
	if l.CarryOut(2) != 2 {
		t.Fatalf("carry = %v, want 2", l.CarryOut(2))
	}
}

func TestLedgerSettleSequentialDrainMatchesReplay(t *testing.T) {
	// Adversarial floats: many irrational-ish deltas against a pool that
	// cannot hold them all. Whatever Settle emits must replay with the
	// identical sequential subtraction — no ulp disagreement, so the
	// capped grant leaves exactly zero on both sides.
	served := make([]RewardShare, 0, 101)
	for i := 0; i < 101; i++ {
		served = append(served, RewardShare{Name: string(rune('a'+i%26)) + string(rune('a'+i/26)), Amount: math.Sqrt(float64(i + 2))})
	}
	l := NewLedger()
	ev, capped, ok := l.Settle(0.1, math.Pi*100, served)
	if !ok || capped == 0 {
		t.Fatalf("ok %v, capped %d: want a capped settle", ok, capped)
	}
	if err := l.ApplySettle(ev); err != nil {
		t.Fatalf("settle record fails replay: %v", err)
	}
	if got := l.CarryOut(1); got != 0 {
		t.Fatalf("replay carry %v, want exactly 0", got)
	}
}
