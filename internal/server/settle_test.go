package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"testing"

	"incentivetree/internal/core"
	"incentivetree/internal/geometric"
	"incentivetree/internal/journal"
)

// newSettleFixture builds a journaled server with the quarantine
// fixture population.
func newSettleFixture(t *testing.T) (*Server, *bytes.Buffer) {
	t.Helper()
	m, err := geometric.Default(core.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	var log bytes.Buffer
	s := New(m, WithJournal(journal.NewWriter(&log, 1)))
	buildQuarantineFixture(t, s)
	return s, &log
}

// checkLedgerInvariant asserts, for every settled epoch of s, that the
// sequential share sum stays within the accrued pool and that each
// participant's claims stay within what was settled to them — the
// acceptance invariant of the settlement subsystem.
func checkLedgerInvariant(t *testing.T, s *Server) {
	t.Helper()
	s.mu.RLock()
	defer s.mu.RUnlock()
	l := s.state.Ledger
	for n := uint64(1); n <= uint64(l.Epochs()); n++ {
		se, ok := l.Epoch(n)
		if !ok {
			t.Fatalf("epoch %d missing", n)
		}
		remaining := se.Pool
		for _, r := range se.Rewards {
			remaining -= r.Amount
			if remaining < 0 {
				t.Fatalf("epoch %d: shares exceed pool %v at %q", n, se.Pool, r.Name)
			}
		}
		if l.ClaimedAmount(n) > l.SettledAmount(n) {
			t.Fatalf("epoch %d: claimed %v > settled %v", n, l.ClaimedAmount(n), l.SettledAmount(n))
		}
		for _, name := range se.Claimed {
			if l.ClaimedOf(name) > l.SettledOf(name) {
				t.Fatalf("participant %q claimed %v > settled %v", name, l.ClaimedOf(name), l.SettledOf(name))
			}
		}
	}
}

func TestSettleAndClaimHTTP(t *testing.T) {
	s, _ := newSettleFixture(t)
	ts := newHTTPServer(t, s)

	// First settle: pool = Phi * C(T), shares are the full served table.
	resp := postJSON(t, ts+"/v1/epochs/settle", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("settle status = %d", resp.StatusCode)
	}
	var sum EpochSummary
	if err := json.NewDecoder(resp.Body).Decode(&sum); err != nil {
		t.Fatal(err)
	}
	if sum.Epoch != 1 || sum.Shares == 0 {
		t.Fatalf("settle summary = %+v", sum)
	}
	phi := s.Mechanism().Params().Phi
	if want := phi * 14; sum.Pool != want { // fixture contributes 4+3+2+5
		t.Fatalf("pool = %v, want %v", sum.Pool, want)
	}
	if sum.Settled > sum.Pool {
		t.Fatalf("settled %v exceeds pool %v", sum.Settled, sum.Pool)
	}

	// Settling again with no new contributions is a 409.
	if resp := postJSON(t, ts+"/v1/epochs/settle", nil); resp.StatusCode != http.StatusConflict {
		t.Fatalf("idle settle status = %d, want 409", resp.StatusCode)
	}

	// Claim a's share; a second claim must 409 without double credit.
	var receipt ClaimReceipt
	resp = postJSON(t, ts+"/v1/claims", map[string]any{"name": "a", "epoch": 1})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("claim status = %d", resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(&receipt); err != nil {
		t.Fatal(err)
	}
	if receipt.Amount <= 0 {
		t.Fatalf("claim receipt = %+v", receipt)
	}
	if resp := postJSON(t, ts+"/v1/claims", map[string]any{"name": "a", "epoch": 1}); resp.StatusCode != http.StatusConflict {
		t.Fatalf("duplicate claim status = %d, want 409", resp.StatusCode)
	}
	var acct claimsAccount
	getJSON(t, ts+"/v1/claims?name=a", &acct)
	if acct.Claimed != receipt.Amount || acct.Claims != 1 {
		t.Fatalf("claims account = %+v, want claimed %v", acct, receipt.Amount)
	}

	// Unknown participant and unsettled epoch are 404s.
	if resp := postJSON(t, ts+"/v1/claims", map[string]any{"name": "zz", "epoch": 1}); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown claimant status = %d, want 404", resp.StatusCode)
	}
	if resp := postJSON(t, ts+"/v1/claims", map[string]any{"name": "a", "epoch": 9}); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unsettled epoch claim status = %d, want 404", resp.StatusCode)
	}
	if resp := getJSON(t, ts+"/v1/epochs/9", nil); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unsettled epoch get status = %d, want 404", resp.StatusCode)
	}

	// Epoch listing and detail agree.
	var list epochsResponse
	getJSON(t, ts+"/v1/epochs", &list)
	if list.NextEpoch != 2 || len(list.Epochs) != 1 || list.ClaimedTotal != receipt.Amount {
		t.Fatalf("epochs = %+v", list)
	}
	var detail epochDetail
	getJSON(t, ts+"/v1/epochs/1", &detail)
	if detail.Epoch != 1 || len(detail.Rewards) != detail.Shares || len(detail.Claimed) != 1 || detail.Claimed[0] != "a" {
		t.Fatalf("epoch detail = %+v", detail)
	}
	checkLedgerInvariant(t, s)
}

func TestSettleAccruesDeltaAndCarry(t *testing.T) {
	s, _ := newSettleFixture(t)
	first, err := s.Settle()
	if err != nil {
		t.Fatal(err)
	}
	// New contribution, then settle again: the second pool accrues only
	// the delta (plus carry-over), and shares are reward growth only.
	if err := s.Contribute("c", 6); err != nil {
		t.Fatal(err)
	}
	second, err := s.Settle()
	if err != nil {
		t.Fatal(err)
	}
	phi := s.Mechanism().Params().Phi
	if want := phi*6 + first.CarryOut; second.Pool != want {
		t.Fatalf("second pool = %v, want phi*6+carry = %v", second.Pool, want)
	}
	if second.CTotal != 20 {
		t.Fatalf("second ctotal = %v, want 20", second.CTotal)
	}
	// Cumulative settled per participant never exceeds the served
	// reward, and claims of both epochs pay distinct deltas.
	for _, name := range []string{"a", "b", "c", "d"} {
		p, err := s.participant(name)
		if err != nil {
			t.Fatal(err)
		}
		s.mu.RLock()
		settled := s.state.Ledger.SettledOf(name)
		s.mu.RUnlock()
		if settled > p.Reward+1e-12 {
			t.Fatalf("%s: settled %v > reward %v", name, settled, p.Reward)
		}
	}
	checkLedgerInvariant(t, s)
}

func TestSettleExcludesQuarantined(t *testing.T) {
	s, _ := newSettleFixture(t)
	if err := s.Quarantine("b"); err != nil {
		t.Fatal(err)
	}
	sum, err := s.Settle()
	if err != nil {
		t.Fatal(err)
	}
	s.mu.RLock()
	se, _ := s.state.Ledger.Epoch(1)
	s.mu.RUnlock()
	for _, r := range se.Rewards {
		if r.Name == "b" || r.Name == "c" { // c is inside b's subtree
			t.Fatalf("quarantined subtree settled: %v", se.Rewards)
		}
	}
	// The pool still accrues on raw C(T); the withheld share stays as
	// carry for later epochs.
	phi := s.Mechanism().Params().Phi
	if sum.Pool != phi*14 {
		t.Fatalf("pool = %v, want %v", sum.Pool, phi*14)
	}
	if sum.CarryOut <= 0 {
		t.Fatalf("carry = %v, want > 0 (withheld rewards)", sum.CarryOut)
	}
	// A claim by the quarantined participant finds no share: 404 path.
	if _, err := s.Claim("b", 1); !errors.Is(err, ErrNoShare) {
		t.Fatalf("claim by quarantined = %v, want ErrNoShare", err)
	}
	// After unquarantine, the next settle grants the subtree's deltas
	// out of the carried budget.
	if err := s.Unquarantine("b"); err != nil {
		t.Fatal(err)
	}
	sum2, err := s.Settle()
	if err != nil {
		t.Fatal(err)
	}
	found := false
	s.mu.RLock()
	se2, _ := s.state.Ledger.Epoch(2)
	s.mu.RUnlock()
	for _, r := range se2.Rewards {
		if r.Name == "b" {
			found = true
		}
	}
	if !found {
		t.Fatalf("unquarantined participant not settled in epoch 2: %+v", sum2)
	}
	checkLedgerInvariant(t, s)
}

// TestSettleLedgerInvariantAcrossRecovery is the acceptance matrix:
// settle+claim history must survive (1) pure journal replay, (2)
// snapshot ("checkpoint") recovery, (3) snapshot + journal-suffix
// recovery, and (4) a torn-tail (kill -9) replay — with the ledger
// invariant and the HTTP surface intact.
func TestSettleLedgerInvariantAcrossRecovery(t *testing.T) {
	// Journals hold binary records only; the subtest names the record
	// format under test.
	t.Run("binary", func(t *testing.T) {
		s, log := newSettleFixture(t)
		if _, err := s.Settle(); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Claim("a", 1); err != nil {
			t.Fatal(err)
		}
		snap := s.SnapshotState() // checkpoint between the two epochs
		if err := s.Contribute("d", 8); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Settle(); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Claim("d", 2); err != nil {
			t.Fatal(err)
		}
		want := httpBody(t, s, "/v1/epochs") + httpBody(t, s, "/v1/claims?name=a") + httpBody(t, s, "/v1/rewards")

		m := s.Mechanism()
		events, err := journal.Read(bytes.NewReader(log.Bytes()))
		if err != nil {
			t.Fatal(err)
		}

		// (1) Pure journal replay.
		r1 := New(m)
		if err := Recover(r1, nil, events); err != nil {
			t.Fatal(err)
		}
		// (2) Snapshot-only recovery reaches the checkpoint state.
		r2 := New(m)
		if err := Recover(r2, &snap, nil); err != nil {
			t.Fatal(err)
		}
		r2.mu.RLock()
		if r2.state.Ledger.Epochs() != 1 || !r2.state.Ledger.HasClaimed(1, "a") {
			t.Fatalf("snapshot recovery ledger: epochs=%d", r2.state.Ledger.Epochs())
		}
		r2.mu.RUnlock()
		checkLedgerInvariant(t, r2)
		// (3) Snapshot + journal suffix.
		r3 := New(m)
		if err := Recover(r3, &snap, events); err != nil {
			t.Fatal(err)
		}
		// (4) Torn tail: a half-written record, which replay drops.
		next, err := journal.AppendBinaryRecord(nil, journal.Event{Seq: s.LastSeq() + 1, Kind: journal.KindContribute, Name: "a", Amount: 1})
		if err != nil {
			t.Fatal(err)
		}
		torn := append(append([]byte(nil), log.Bytes()...), next[:len(next)/2]...)
		tornEvents, err := journal.Read(bytes.NewReader(torn))
		if !errors.Is(err, journal.ErrTornTail) {
			t.Fatalf("torn log error = %v, want ErrTornTail", err)
		}
		r4 := New(m)
		if err := Recover(r4, nil, tornEvents); err != nil {
			t.Fatal(err)
		}

		for i, r := range []*Server{r1, r3, r4} {
			got := httpBody(t, r, "/v1/epochs") + httpBody(t, r, "/v1/claims?name=a") + httpBody(t, r, "/v1/rewards")
			if got != want {
				t.Fatalf("recovery path %d diverged:\n got %s\nwant %s", i+1, got, want)
			}
			checkLedgerInvariant(t, r)
			// Idempotency across recovery: the claimed share stays
			// claimed — a retry is a conflict, not a double credit.
			if _, err := r.Claim("a", 1); !errors.Is(err, ErrAlreadyClaimed) {
				t.Fatalf("recovery path %d: re-claim = %v, want ErrAlreadyClaimed", i+1, err)
			}
		}
	})
}

// TestSettleSnapshotCodecRoundTrip proves settled epochs survive the
// binary snapshot byte-exactly and the JSON wire form intact.
func TestSettleSnapshotCodecRoundTrip(t *testing.T) {
	s, _ := newSettleFixture(t)
	if _, err := s.Settle(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Claim("a", 1); err != nil {
		t.Fatal(err)
	}
	snap := s.SnapshotState()
	if len(snap.Epochs) != 1 || len(snap.Epochs[0].Claimed) != 1 {
		t.Fatalf("snapshot epochs = %+v", snap.Epochs)
	}

	bin, err := journal.EncodeSnapshot(&snap)
	if err != nil {
		t.Fatal(err)
	}
	if bin[4] != 2 {
		t.Fatalf("version byte = %d, want 2", bin[4])
	}
	dec, err := journal.DecodeSnapshot(bin)
	if err != nil {
		t.Fatal(err)
	}
	re, err := journal.EncodeSnapshot(dec)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(bin, re) {
		t.Fatal("binary snapshot decode∘encode not identity with epochs")
	}

	jsonData, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	var jdec journal.Snapshot
	if err := json.Unmarshal(jsonData, &jdec); err != nil {
		t.Fatal(err)
	}
	r1, r2 := New(s.Mechanism()), New(s.Mechanism())
	if err := r1.RestoreState(*dec); err != nil {
		t.Fatal(err)
	}
	if err := r2.RestoreState(jdec); err != nil {
		t.Fatal(err)
	}
	if got, want := httpBody(t, r1, "/v1/epochs"), httpBody(t, r2, "/v1/epochs"); got != want {
		t.Fatalf("binary and JSON restores diverge:\n%s\n%s", got, want)
	}

	// A server without settled epochs still writes version-1 bytes.
	s2, _ := newSettleFixture(t)
	empty := s2.SnapshotState()
	bin2, err := journal.EncodeSnapshot(&empty)
	if err != nil {
		t.Fatal(err)
	}
	if bin2[4] != 1 {
		t.Fatalf("empty-ledger snapshot version = %d, want 1", bin2[4])
	}

	// A corrupt snapshot whose shares overdraw the pool is rejected on
	// restore (the invariant is re-checked, not trusted).
	bad := snap
	bad.Epochs = []journal.SettledEpoch{{Epoch: 1, Pool: 0.5, CTotal: 14,
		Rewards: []journal.RewardShare{{Name: "a", Amount: 1}}}}
	if err := New(s.Mechanism()).RestoreState(bad); err == nil {
		t.Fatal("restore accepted an overdrawn ledger snapshot")
	}
}

// TestSettleReplicates proves ApplyReplicated carries settle/claim
// records to a follower that then serves the identical ledger.
func TestSettleReplicates(t *testing.T) {
	s, log := newSettleFixture(t)
	if _, err := s.Settle(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Claim("b", 1); err != nil {
		t.Fatal(err)
	}
	events, err := journal.Read(bytes.NewReader(log.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	f := New(s.Mechanism())
	if err := f.ApplyReplicated(events); err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{"/v1/epochs", "/v1/claims", "/v1/rewards"} {
		if got, want := httpBody(t, f, path), httpBody(t, s, path); got != want {
			t.Fatalf("follower %s diverged:\n got %s\nwant %s", path, got, want)
		}
	}
	checkLedgerInvariant(t, f)
}

// newHTTPServer starts an httptest server over s and returns its URL.
func newHTTPServer(t *testing.T, s *Server) string {
	t.Helper()
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return ts.URL
}
