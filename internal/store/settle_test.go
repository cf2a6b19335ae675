package store

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"testing"
	"time"

	"incentivetree/internal/core"
	"incentivetree/internal/journal"
)

// getBody fetches one GET path's raw response body through the store
// handler — settlement recovery is asserted byte-for-byte, like the
// reward tables in recovery_test.go.
func getBody(t *testing.T, h http.Handler, path string) []byte {
	t.Helper()
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest("GET", path, nil))
	if w.Code != http.StatusOK {
		t.Fatalf("GET %s = %d: %s", path, w.Code, w.Body.String())
	}
	return append([]byte(nil), w.Body.Bytes()...)
}

// ledgerBytes concatenates every settlement-visible surface of one
// campaign: the epoch list, one participant's claims account, and the
// reward table.
func ledgerBytes(t *testing.T, h http.Handler, id, name string) []byte {
	t.Helper()
	var buf bytes.Buffer
	buf.Write(getBody(t, h, "/v1/campaigns/"+id+"/epochs"))
	buf.Write(getBody(t, h, "/v1/campaigns/"+id+"/claims?name="+name))
	buf.Write(getBody(t, h, "/v1/campaigns/"+id+"/rewards"))
	return buf.Bytes()
}

// TestSettleSurvivesStoreRecovery settles and claims across a
// checkpoint, crashes the store with a torn journal tail, and requires
// the recovered ledger — one epoch from the snapshot, one from the
// journal suffix — to be byte-identical. The recovered claim must stay
// claimed: a retry answers 409 and credits nothing.
func TestSettleSurvivesStoreRecovery(t *testing.T) {
	// The store keeps binary journals and snapshots only; the subtest
	// names the on-disk format under test.
	t.Run("binary", func(t *testing.T) {
		dir := t.TempDir()
		cfg := testConfig(dir)
		st, err := Open(cfg)
		if err != nil {
			t.Fatal(err)
		}
		// No Close: this store "crashes" below.
		h := st.Handler()
		if _, err := st.Create(Meta{ID: "pay", Mechanism: "geometric"}); err != nil {
			t.Fatal(err)
		}
		workload(t, h, "pay", 2, 5)

		if code := do(t, h, "POST", "/v1/campaigns/pay/epochs/settle", "", nil); code != http.StatusOK {
			t.Fatalf("settle = %d", code)
		}
		if err := postJSON(h, "/v1/campaigns/pay/claims", `{"name":"pay-w0-0","epoch":1}`); err != nil {
			t.Fatal(err)
		}
		// Checkpoint: epoch 1 and its claim now live only in the snapshot.
		c, _ := st.Get("pay")
		if _, err := st.Checkpoint(c); err != nil {
			t.Fatal(err)
		}
		// Epoch 2 and its claim live only in the journal suffix.
		if err := postJSON(h, "/v1/campaigns/pay/contribute", `{"name":"pay-w1-0","amount":2.75}`); err != nil {
			t.Fatal(err)
		}
		if code := do(t, h, "POST", "/v1/campaigns/pay/epochs/settle", "", nil); code != http.StatusOK {
			t.Fatalf("second settle = %d", code)
		}
		if err := postJSON(h, "/v1/campaigns/pay/claims", `{"name":"pay-w1-0","epoch":2}`); err != nil {
			t.Fatal(err)
		}

		pre := ledgerBytes(t, h, "pay", "pay-w0-0")
		seq := c.Server().LastSeq()

		// Hard crash mid-append of a claim.
		appendTornRecord(t, filepath.Join(dir, "campaigns", "pay", "journal.log"),
			journal.Event{Seq: seq + 1, Kind: journal.KindClaim, Name: "pay-w0-0", Epoch: 2, Amount: 0.5})

		st2 := openStore(t, cfg)
		h2 := st2.Handler()
		if post := ledgerBytes(t, h2, "pay", "pay-w0-0"); !bytes.Equal(pre, post) {
			t.Errorf("recovered ledger differs from pre-crash\npre:  %s\npost: %s", pre, post)
		}
		c2, _ := st2.Get("pay")
		if got := c2.Server().LastSeq(); got != seq {
			t.Errorf("recovered lastSeq = %d, want %d", got, seq)
		}
		// The replayed claims stay claimed: retries are conflicts, not
		// double credits.
		for _, body := range []string{
			`{"name":"pay-w0-0","epoch":1}`,
			`{"name":"pay-w1-0","epoch":2}`,
		} {
			if code := do(t, h2, "POST", "/v1/campaigns/pay/claims", body, nil); code != http.StatusConflict {
				t.Errorf("re-claim %s = %d, want 409", body, code)
			}
		}
		// And the ledger surface is still what it was before the retries.
		if post := ledgerBytes(t, h2, "pay", "pay-w0-0"); !bytes.Equal(pre, post) {
			t.Error("rejected re-claims changed the ledger")
		}
	})
}

// TestClaimReplayIdempotentAfterCrash simulates the exact kill -9
// window of the claim path: the journal append is durable but the
// process dies before the response (and the in-memory apply, as far as
// disk can tell). Replay must credit the claim once; the client's
// retry answers 409.
func TestClaimReplayIdempotentAfterCrash(t *testing.T) {
	dir := t.TempDir()
	cfg := testConfig(dir)
	st, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	h := st.Handler()
	if _, err := st.Create(Meta{ID: "pay", Mechanism: "geometric"}); err != nil {
		t.Fatal(err)
	}
	if err := postJSON(h, "/v1/campaigns/pay/join", `{"name":"a"}`); err != nil {
		t.Fatal(err)
	}
	if err := postJSON(h, "/v1/campaigns/pay/contribute", `{"name":"a","amount":4}`); err != nil {
		t.Fatal(err)
	}
	if code := do(t, h, "POST", "/v1/campaigns/pay/epochs/settle", "", nil); code != http.StatusOK {
		t.Fatalf("settle = %d", code)
	}
	var detail struct {
		Rewards []journal.RewardShare `json:"rewards"`
	}
	if code := do(t, h, "GET", "/v1/campaigns/pay/epochs/1", "", &detail); code != http.StatusOK {
		t.Fatalf("epoch detail = %d", code)
	}
	if len(detail.Rewards) != 1 || detail.Rewards[0].Name != "a" {
		t.Fatalf("unexpected epoch 1 shares: %+v", detail.Rewards)
	}
	c, _ := st.Get("pay")
	lastSeq := c.Server().LastSeq()
	// Crash now: abandon st and append the claim record the way the dying
	// process already had — durably, with no response ever sent.
	fw, err := journal.OpenFile(filepath.Join(dir, "campaigns", "pay", "journal.log"), journal.SyncOS, 0)
	if err != nil {
		t.Fatal(err)
	}
	jw := journal.NewWriter(fw, lastSeq+1)
	if _, err := jw.AppendBatch([]journal.Event{{Kind: journal.KindClaim, Name: "a", Epoch: 1, Amount: detail.Rewards[0].Amount}}); err != nil {
		t.Fatal(err)
	}
	if err := fw.Close(); err != nil {
		t.Fatal(err)
	}

	st2 := openStore(t, cfg)
	h2 := st2.Handler()
	// The retry the client sends after its lost response: a conflict.
	if code := do(t, h2, "POST", "/v1/campaigns/pay/claims", `{"name":"a","epoch":1}`, nil); code != http.StatusConflict {
		t.Fatalf("post-crash re-claim = %d, want 409", code)
	}
	var acct struct {
		Settled   float64 `json:"settled"`
		Claimed   float64 `json:"claimed"`
		Unclaimed float64 `json:"unclaimed"`
		Claims    int     `json:"claims"`
	}
	if code := do(t, h2, "GET", "/v1/campaigns/pay/claims?name=a", "", &acct); code != http.StatusOK {
		t.Fatalf("claims account = %d", code)
	}
	if acct.Claims != 1 || acct.Claimed != detail.Rewards[0].Amount || acct.Unclaimed != 0 {
		t.Fatalf("replayed claim credited wrong: %+v (share %v)", acct, detail.Rewards[0].Amount)
	}
}

// TestEpochTickerSettles runs the store's Run loop with a fast
// EpochInterval and waits for it to settle an epoch on its own, with
// the pool accrued at the campaign's Phi.
func TestEpochTickerSettles(t *testing.T) {
	dir := t.TempDir()
	cfg := testConfig(dir)
	cfg.EpochInterval = 5 * time.Millisecond
	cfg.DefaultParams = core.Params{Phi: 0.25, FairShare: 0.02}
	st := openStore(t, cfg)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go st.Run(ctx)
	h := st.Handler()

	if err := postJSON(h, "/v1/join", `{"name":"p0"}`); err != nil {
		t.Fatal(err)
	}
	if err := postJSON(h, "/v1/contribute", `{"name":"p0","amount":4}`); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		var resp struct {
			BudgetFrac float64 `json:"budget_frac"`
			Epochs     []struct {
				Pool float64 `json:"pool"`
			} `json:"epochs"`
		}
		body := getBody(t, h, "/v1/epochs")
		if err := json.Unmarshal(body, &resp); err != nil {
			t.Fatalf("bad /v1/epochs body %q: %v", body, err)
		}
		if len(resp.Epochs) >= 1 {
			if resp.BudgetFrac != 0.25 {
				t.Fatalf("budget_frac = %v, want the campaign's Phi 0.25", resp.BudgetFrac)
			}
			if resp.Epochs[0].Pool != 1 {
				t.Fatalf("epoch 1 pool = %v, want 0.25*4", resp.Epochs[0].Pool)
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("epoch ticker never settled")
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestSettleAllSkipsIdleCampaigns: a quiet campaign yields no empty
// epochs no matter how often the ticker fires.
func TestSettleAllSkipsIdleCampaigns(t *testing.T) {
	st := openStore(t, testConfig(t.TempDir()))
	h := st.Handler()
	if err := postJSON(h, "/v1/join", `{"name":"p0"}`); err != nil {
		t.Fatal(err)
	}
	if err := postJSON(h, "/v1/contribute", `{"name":"p0","amount":2}`); err != nil {
		t.Fatal(err)
	}
	st.SettleAll()
	st.SettleAll()
	st.SettleAll()
	var resp struct {
		Epochs []json.RawMessage `json:"epochs"`
	}
	if code := do(t, h, "GET", "/v1/epochs", "", &resp); code != http.StatusOK {
		t.Fatalf("epochs = %d", code)
	}
	if len(resp.Epochs) != 1 {
		t.Fatalf("idle ticks settled %d epochs, want 1", len(resp.Epochs))
	}
}

// TestSettleEndpointRouting sanity-checks the multi-tenant routing of
// the new endpoints: per-campaign paths hit their own ledger, legacy
// paths the default campaign's.
func TestSettleEndpointRouting(t *testing.T) {
	st := openStore(t, testConfig(t.TempDir()))
	h := st.Handler()
	if _, err := st.Create(Meta{ID: "acme"}); err != nil {
		t.Fatal(err)
	}
	if err := postJSON(h, "/v1/campaigns/acme/join", `{"name":"a"}`); err != nil {
		t.Fatal(err)
	}
	if err := postJSON(h, "/v1/campaigns/acme/contribute", `{"name":"a","amount":3}`); err != nil {
		t.Fatal(err)
	}
	if code := do(t, h, "POST", "/v1/campaigns/acme/epochs/settle", "", nil); code != http.StatusOK {
		t.Fatalf("settle acme = %d", code)
	}
	var resp struct {
		Epochs []json.RawMessage `json:"epochs"`
	}
	if code := do(t, h, "GET", "/v1/campaigns/acme/epochs", "", &resp); code != http.StatusOK || len(resp.Epochs) != 1 {
		t.Fatalf("acme epochs = %d, %d epochs", code, len(resp.Epochs))
	}
	// The default campaign saw none of that.
	resp.Epochs = nil
	if code := do(t, h, "GET", "/v1/epochs", "", &resp); code != http.StatusOK || len(resp.Epochs) != 0 {
		t.Fatalf("default epochs = %d, %d epochs, want 0", code, len(resp.Epochs))
	}
	// Nothing to settle on the empty default campaign: 409 via routing.
	if code := do(t, h, "POST", "/v1/epochs/settle", "", nil); code != http.StatusConflict {
		t.Fatalf("idle default settle = %d, want 409", code)
	}
}
