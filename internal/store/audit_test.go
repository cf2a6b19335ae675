package store

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

// auditConfig enables the audit service with a long interval (tests
// drive scans via the HTTP scan endpoint or AuditAll, never the timer).
func auditConfig(dir string) Config {
	cfg := testConfig(dir)
	cfg.AuditInterval = time.Hour
	return cfg
}

// plantChain joins an ε-chain of n identities under sponsor through
// the campaign's HTTP surface.
func plantChain(t *testing.T, h http.Handler, base, sponsor string, n int) []string {
	t.Helper()
	names := make([]string, n)
	parent := sponsor
	for i := range names {
		names[i] = fmt.Sprintf("syb-%02d", i)
		if code := do(t, h, "POST", base+"/join",
			fmt.Sprintf(`{"name":%q,"sponsor":%q}`, names[i], parent), nil); code != http.StatusCreated {
			t.Fatalf("join %s: %d", names[i], code)
		}
		if code := do(t, h, "POST", base+"/contribute",
			fmt.Sprintf(`{"name":%q,"amount":0.8}`, names[i]), nil); code != http.StatusOK {
			t.Fatalf("contribute %s: %d", names[i], code)
		}
		parent = names[i]
	}
	return names
}

// auditReport mirrors the GET .../audit wire shape.
type auditReport struct {
	Enabled     bool     `json:"enabled"`
	Quarantined []string `json:"quarantined"`
	Report      *struct {
		Scans    uint64 `json:"scans"`
		Flagged  int    `json:"flagged"`
		Findings []struct {
			Root            string   `json:"root"`
			Shape           string   `json:"shape"`
			Flagged         bool     `json:"flagged"`
			Members         []string `json:"members"`
			AutoQuarantined bool     `json:"auto_quarantined"`
		} `json:"findings"`
	} `json:"report"`
}

// TestAuditServiceHTTP drives the full loop over the campaign-scoped
// routes: plant an ε-chain, scan twice, read the flagged finding, see
// the auto-quarantine zero the subtree's payout, then lift it by hand.
func TestAuditServiceHTTP(t *testing.T) {
	cfg := auditConfig(t.TempDir())
	cfg.AuditQuarantine = true
	st := openStore(t, cfg)
	h := st.Handler()
	if code := do(t, h, "POST", "/v1/campaigns", `{"id":"c1"}`, nil); code != http.StatusCreated {
		t.Fatalf("create: %d", code)
	}
	base := "/v1/campaigns/c1"
	do(t, h, "POST", base+"/join", `{"name":"alice"}`, nil)
	do(t, h, "POST", base+"/join", `{"name":"bob","sponsor":"alice"}`, nil)
	do(t, h, "POST", base+"/contribute", `{"name":"bob","amount":3}`, nil)
	names := plantChain(t, h, base, "alice", 5)

	var rep auditReport
	if code := do(t, h, "GET", base+"/audit", "", &rep); code != http.StatusOK {
		t.Fatalf("audit report: %d", code)
	}
	if !rep.Enabled || rep.Report == nil {
		t.Fatalf("audit service not enabled: %+v", rep)
	}
	var scan struct {
		Flagged     int `json:"flagged"`
		Quarantined int `json:"quarantined"`
	}
	do(t, h, "POST", base+"/audit/scan", "", &scan)
	if code := do(t, h, "POST", base+"/audit/scan", "", &scan); code != http.StatusOK {
		t.Fatalf("scan: %d", code)
	}
	if scan.Flagged != 1 || scan.Quarantined != 1 {
		t.Fatalf("second scan %+v, want one flagged, one quarantined", scan)
	}
	do(t, h, "GET", base+"/audit", "", &rep)
	if len(rep.Quarantined) != 1 || rep.Quarantined[0] != names[0] {
		t.Fatalf("quarantined %v, want the chain head %q", rep.Quarantined, names[0])
	}
	if len(rep.Report.Findings) != 1 || !rep.Report.Findings[0].AutoQuarantined ||
		rep.Report.Findings[0].Shape != "epsilon-chain" {
		t.Fatalf("findings %+v, want one auto-quarantined ε-chain", rep.Report.Findings)
	}

	// The quarantined subtree's payout is zero; honest rewards stay.
	rewards := func() map[string]float64 {
		var doc struct {
			Participants []struct {
				Name   string  `json:"name"`
				Reward float64 `json:"reward"`
			} `json:"participants"`
		}
		do(t, h, "GET", base+"/rewards", "", &doc)
		out := make(map[string]float64)
		for _, p := range doc.Participants {
			out[p.Name] = p.Reward
		}
		return out
	}
	paid := rewards()
	for _, n := range names {
		if paid[n] != 0 {
			t.Fatalf("quarantined %s still paid %v", n, paid[n])
		}
	}
	if paid["bob"] <= 0 {
		t.Fatalf("honest bob unpaid: %v", paid)
	}

	// An operator can lift the flag (head only was quarantined).
	if code := do(t, h, "DELETE", base+"/audit/quarantine/"+names[0], "", nil); code != http.StatusOK {
		t.Fatalf("unquarantine: %d", code)
	}
	if paid = rewards(); paid[names[0]] <= 0 {
		t.Fatalf("unquarantined head still zeroed: %v", paid)
	}
}

func TestAuditQuarantineHTTPErrors(t *testing.T) {
	st := openStore(t, auditConfig(t.TempDir()))
	h := st.Handler()
	do(t, h, "POST", "/v1/join", `{"name":"alice"}`, nil)

	if code := do(t, h, "POST", "/v1/audit/quarantine", `{"name":"ghost"}`, nil); code != http.StatusNotFound {
		t.Fatalf("unknown name: %d, want 404", code)
	}
	if code := do(t, h, "DELETE", "/v1/audit/quarantine/alice", "", nil); code != http.StatusConflict {
		t.Fatalf("unquarantine of clean name: %d, want 409", code)
	}
	if code := do(t, h, "POST", "/v1/audit/quarantine", `{"name":"alice"}`, nil); code != http.StatusOK {
		t.Fatalf("quarantine: %d", code)
	}
	if code := do(t, h, "POST", "/v1/audit/quarantine", `{"name":"alice"}`, nil); code != http.StatusConflict {
		t.Fatalf("double quarantine: %d, want 409", code)
	}
}

func TestAuditDisabledStillServesQuarantine(t *testing.T) {
	st := openStore(t, testConfig(t.TempDir())) // no AuditInterval
	h := st.Handler()
	do(t, h, "POST", "/v1/join", `{"name":"alice"}`, nil)

	var rep auditReport
	if code := do(t, h, "GET", "/v1/audit", "", &rep); code != http.StatusOK {
		t.Fatalf("audit report: %d", code)
	}
	if rep.Enabled || rep.Report != nil {
		t.Fatalf("audit reported enabled without the service: %+v", rep)
	}
	if code := do(t, h, "POST", "/v1/audit/scan", "", nil); code != http.StatusConflict {
		t.Fatalf("scan without service: %d, want 409", code)
	}
	if code := do(t, h, "POST", "/v1/audit/quarantine", `{"name":"alice"}`, nil); code != http.StatusOK {
		t.Fatalf("manual quarantine without service: %d", code)
	}
	do(t, h, "GET", "/v1/audit", "", &rep)
	if len(rep.Quarantined) != 1 || rep.Quarantined[0] != "alice" {
		t.Fatalf("quarantined = %v, want [alice]", rep.Quarantined)
	}
}

// TestQuarantineSurvivesStoreRecovery is the store-level durability
// contract: quarantine flags — journaled, then checkpointed — come
// back byte-identically across reopen, both from a journal suffix and
// from a snapshot.
func TestQuarantineSurvivesStoreRecovery(t *testing.T) {
	dir := t.TempDir()
	readRewards := func(st *Store) string {
		r := httptest.NewRequest("GET", "/v1/campaigns/c1/rewards", nil)
		w := httptest.NewRecorder()
		st.Handler().ServeHTTP(w, r)
		if w.Code != http.StatusOK {
			t.Fatalf("rewards: %d", w.Code)
		}
		return w.Body.String()
	}

	st := openStore(t, auditConfig(dir))
	h := st.Handler()
	do(t, h, "POST", "/v1/campaigns", `{"id":"c1"}`, nil)
	do(t, h, "POST", "/v1/campaigns/c1/join", `{"name":"alice"}`, nil)
	do(t, h, "POST", "/v1/campaigns/c1/contribute", `{"name":"alice","amount":2}`, nil)
	plantChain(t, h, "/v1/campaigns/c1", "alice", 4)
	if code := do(t, h, "POST", "/v1/campaigns/c1/audit/quarantine", `{"name":"syb-00"}`, nil); code != http.StatusOK {
		t.Fatalf("quarantine: %d", code)
	}
	before := readRewards(st)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen #1: the checkpoint taken by Close covers the quarantine —
	// recovery is snapshot-only.
	st2 := openStore(t, auditConfig(dir))
	if got := readRewards(st2); got != before {
		t.Fatalf("snapshot recovery changed rewards:\n before %s\n after  %s", before, got)
	}
	// Write more, skip checkpointing, and recover the quarantine record
	// from the journal suffix this time.
	h2 := st2.Handler()
	do(t, h2, "POST", "/v1/campaigns/c1/join", `{"name":"carol","sponsor":"alice"}`, nil)
	do(t, h2, "POST", "/v1/campaigns/c1/contribute", `{"name":"carol","amount":1}`, nil)
	do(t, h2, "POST", "/v1/campaigns/c1/audit/quarantine", `{"name":"carol"}`, nil)
	mid := readRewards(st2)
	c, _ := st2.Get("c1")
	if c.fw != nil {
		c.fw.Close() // simulate a crash: journal written, no checkpoint
	}

	st3 := openStore(t, auditConfig(dir))
	if got := readRewards(st3); got != mid {
		t.Fatalf("journal recovery changed rewards:\n before %s\n after  %s", mid, got)
	}
	if a := func() *Campaign { c, _ := st3.Get("c1"); return c }(); a.Auditor() == nil {
		t.Fatal("recovered campaign has no auditor attached")
	}
}
