package replica_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"incentivetree/internal/store"
)

// settleEpoch settles the next payout epoch on the primary over HTTP.
func settleEpoch(t *testing.T, baseURL, campaign string) {
	t.Helper()
	resp, err := http.Post(baseURL+"/v1/campaigns/"+campaign+"/epochs/settle", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("settle: HTTP %d", resp.StatusCode)
	}
}

// claim claims one (participant, epoch) share on the primary and
// returns the HTTP status.
func claim(t *testing.T, baseURL, campaign, name string, epoch uint64) int {
	t.Helper()
	resp, err := http.Post(baseURL+"/v1/campaigns/"+campaign+"/claims", "application/json",
		strings.NewReader(fmt.Sprintf(`{"name":%q,"epoch":%d}`, name, epoch)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp.StatusCode
}

// requireIdenticalLedger compares the settlement read surface — the
// epoch list, one epoch's frozen share table, and a participant's
// claims account — byte for byte between primary and follower.
func requireIdenticalLedger(t *testing.T, primaryURL, followerURL, campaign, name string) {
	t.Helper()
	for _, path := range []string{"/epochs", "/epochs/1", "/claims", "/claims?name=" + name} {
		p := mustGet(t, primaryURL+"/v1/campaigns/"+campaign+path)
		f := mustGet(t, followerURL+"/v1/campaigns/"+campaign+path)
		if !bytes.Equal(p, f) {
			t.Fatalf("%s %s: ledger bytes differ:\nprimary:  %s\nfollower: %s", campaign, path, p, f)
		}
	}
}

// TestSettleReplicatesThroughFaults is the replication contract for
// the settlement subsystem: settle and claim records replay on
// followers to byte-identical ledgers — through torn journal streams,
// a primary crash-restart, and a cold follower bootstrap whose ledger
// arrives inside the checkpoint snapshot rather than the live tail.
func TestSettleReplicatesThroughFaults(t *testing.T) {
	dir := t.TempDir()
	p := startPrimary(t, dir)
	proxy := newFlexProxy(p.ts.URL)
	pts := httptest.NewServer(proxy)
	defer pts.Close()

	p.write(store.DefaultID, 0, 6)
	settleEpoch(t, p.ts.URL, store.DefaultID)
	if code := claim(t, p.ts.URL, store.DefaultID, "p0000", 1); code != http.StatusOK {
		t.Fatalf("claim: HTTP %d", code)
	}

	f := startFollower(t, pts.URL, 0)
	f.waitApplied(store.DefaultID, p.lastSeq(store.DefaultID))
	requireIdenticalReads(t, p.ts.URL, f.ts.URL, store.DefaultID)
	requireIdenticalLedger(t, p.ts.URL, f.ts.URL, store.DefaultID, "p0000")

	// Settlement writes never apply on a follower: 307 to the primary.
	noRedirect := &http.Client{CheckRedirect: func(*http.Request, []*http.Request) error {
		return http.ErrUseLastResponse
	}}
	for _, path := range []string{"/epochs/settle", "/claims"} {
		resp, err := noRedirect.Post(f.ts.URL+"/v1/campaigns/"+store.DefaultID+path,
			"application/json", strings.NewReader(`{"name":"p0001","epoch":1}`))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusTemporaryRedirect {
			t.Fatalf("POST %s on follower: HTTP %d, want 307", path, resp.StatusCode)
		}
	}

	// Sever the next journal streams mid-record while settle and claim
	// records flow: the follower must resume tailing onto exact bytes.
	proxy.tearJournal.Store(2)
	p.write(store.DefaultID, 10, 6)
	settleEpoch(t, p.ts.URL, store.DefaultID)
	if code := claim(t, p.ts.URL, store.DefaultID, "p0011", 2); code != http.StatusOK {
		t.Fatalf("claim after tear: HTTP %d", code)
	}
	st := f.waitApplied(store.DefaultID, p.lastSeq(store.DefaultID))
	if proxy.tears.Load() == 0 {
		t.Fatal("proxy never tore a stream; fault not exercised")
	}
	if st.Resyncs != 1 {
		t.Fatalf("torn settle stream must resume by tailing, not re-bootstrapping (resyncs=%d)", st.Resyncs)
	}
	requireIdenticalReads(t, p.ts.URL, f.ts.URL, store.DefaultID)
	requireIdenticalLedger(t, p.ts.URL, f.ts.URL, store.DefaultID, "p0000")

	// Kill the primary without flush or checkpoint. The restart replays
	// the settle/claim records from its journal; the follower resumes.
	p.crash()
	p2 := startPrimary(t, dir)
	defer p2.stop()
	proxy.target.Store(p2.ts.URL)
	// The replayed ledger is authoritative: the claimed shares stay
	// claimed across the crash.
	for _, c := range []struct {
		name  string
		epoch uint64
	}{{"p0000", 1}, {"p0011", 2}} {
		if code := claim(t, p2.ts.URL, store.DefaultID, c.name, c.epoch); code != http.StatusConflict {
			t.Fatalf("re-claim %s epoch %d after crash: HTTP %d, want 409", c.name, c.epoch, code)
		}
	}
	p2.write(store.DefaultID, 100, 4)
	st = f.waitApplied(store.DefaultID, p2.lastSeq(store.DefaultID))
	if st.Resyncs != 1 {
		t.Fatalf("primary restart with intact journal should not force a re-bootstrap (resyncs=%d)", st.Resyncs)
	}
	requireIdenticalReads(t, p2.ts.URL, f.ts.URL, store.DefaultID)
	requireIdenticalLedger(t, p2.ts.URL, f.ts.URL, store.DefaultID, "p0000")

	// Checkpoint, then cold-bootstrap a fresh follower: its ledger must
	// arrive through the snapshot/journal-suffix hand-off, not the tail.
	c, _ := p2.st.Get(store.DefaultID)
	if _, err := p2.st.Checkpoint(c); err != nil {
		t.Fatal(err)
	}
	settleEpoch(t, p2.ts.URL, store.DefaultID) // epoch 3 rides the suffix
	f2 := startFollower(t, pts.URL, 0)
	f2.waitApplied(store.DefaultID, p2.lastSeq(store.DefaultID))
	requireIdenticalReads(t, p2.ts.URL, f2.ts.URL, store.DefaultID)
	requireIdenticalLedger(t, p2.ts.URL, f2.ts.URL, store.DefaultID, "p0000")
}

// TestSettleReplicatesCampaignPhi: a campaign created with its own Φ
// settles its pools at that Φ, and its follower serves the same
// ledger bytes, budget_frac included: the accrual fraction is the
// campaign's, carried in the replicated meta, not a process setting.
func TestSettleReplicatesCampaignPhi(t *testing.T) {
	p := startPrimary(t, t.TempDir())
	defer p.stop()
	resp, err := http.Post(p.ts.URL+"/v1/campaigns", "application/json",
		strings.NewReader(`{"id":"lean","mechanism":"tdrm","phi":0.4,"fair":0.05}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create campaign with phi 0.4: HTTP %d", resp.StatusCode)
	}
	p.write("lean", 0, 6)
	settleEpoch(t, p.ts.URL, "lean")
	if code := claim(t, p.ts.URL, "lean", "p0001", 1); code != http.StatusOK {
		t.Fatalf("claim: HTTP %d", code)
	}

	f := startFollower(t, p.ts.URL, 0)
	f.waitApplied("lean", p.lastSeq("lean"))
	requireIdenticalLedger(t, p.ts.URL, f.ts.URL, "lean", "p0001")
	var epochs struct {
		BudgetFrac float64 `json:"budget_frac"`
	}
	if err := json.Unmarshal(mustGet(t, f.ts.URL+"/v1/campaigns/lean/epochs"), &epochs); err != nil {
		t.Fatal(err)
	}
	if epochs.BudgetFrac != 0.4 {
		t.Fatalf("follower budget_frac = %v, want the campaign's Phi 0.4", epochs.BudgetFrac)
	}
}
