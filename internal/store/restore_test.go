package store

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"testing"

	"incentivetree/internal/core"
	"incentivetree/internal/experiments"
	"incentivetree/internal/server"
)

// TestRestoreRefusedOnJournaledCampaign: a restore writes no journal
// record, so on a persisted campaign it would leave a log that replays
// to a different state than the one served, and a later write naming a
// restored participant would make the log unrecoverable. The store
// refuses it with 409 and leaves the campaign as it was.
func TestRestoreRefusedOnJournaledCampaign(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(testConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	// No Close: the store "crashes" at the end of the sequence.
	h := st.Handler()
	for _, body := range []string{`{"name":"a"}`, `{"name":"b","sponsor":"a"}`} {
		if code := do(t, h, "POST", "/v1/campaigns/default/join", body, nil); code != http.StatusCreated {
			t.Fatalf("join %s = %d", body, code)
		}
	}
	m, err := experiments.ByName(core.DefaultParams(), "geometric")
	if err != nil {
		t.Fatal(err)
	}
	other := server.New(m)
	if err := other.Join("x", ""); err != nil {
		t.Fatal(err)
	}
	if err := other.Join("y", "x"); err != nil {
		t.Fatal(err)
	}
	snap, err := json.Marshal(other.SnapshotState())
	if err != nil {
		t.Fatal(err)
	}
	before := rewardsBytes(t, h, DefaultID)
	var refusal struct {
		Error string `json:"error"`
	}
	if code := do(t, h, "POST", "/v1/campaigns/default/restore", string(snap), &refusal); code != http.StatusConflict {
		t.Fatalf("restore on a journaled campaign = %d %q, want 409", code, refusal.Error)
	}
	if refusal.Error == "" {
		t.Fatal("409 without an error message")
	}
	if after := rewardsBytes(t, h, DefaultID); !bytes.Equal(before, after) {
		t.Fatalf("refused restore changed the campaign:\n before %s\n after  %s", before, after)
	}
	if code := do(t, h, "POST", "/v1/campaigns/default/join", `{"name":"z","sponsor":"x"}`, nil); code != http.StatusBadRequest {
		t.Fatalf("join under a participant of the refused snapshot = %d, want 400", code)
	}
	if code := do(t, h, "POST", "/v1/campaigns/default/join", `{"name":"z","sponsor":"b"}`, nil); code != http.StatusCreated {
		t.Fatalf("join z = %d", code)
	}
	live := rewardsBytes(t, h, DefaultID)

	reopened := openStore(t, testConfig(dir))
	if back := rewardsBytes(t, reopened.Handler(), DefaultID); !bytes.Equal(live, back) {
		t.Fatalf("reopened campaign differs:\n live %s\n back %s", live, back)
	}
}

// TestCampaignSummaryDoesNotCopyState: a campaign summary reads three
// numbers, so its cost must not grow with a copy of the tree. At 10^4
// participants the tree clone alone is ~480 KB.
func TestCampaignSummaryDoesNotCopyState(t *testing.T) {
	st := openStore(t, testConfig(""))
	c, ok := st.Get(DefaultID)
	if !ok {
		t.Fatal("no default campaign")
	}
	srv := c.Server()
	for i := 0; i < 10_000; i++ {
		name := fmt.Sprintf("p%d", i)
		sponsor := ""
		if i > 0 {
			sponsor = fmt.Sprintf("p%d", (i-1)/3)
		}
		if err := srv.Join(name, sponsor); err != nil {
			t.Fatal(err)
		}
	}
	h := st.Handler()
	var info campaignInfo
	if code := do(t, h, "GET", "/v1/campaigns/default", "", &info); code != http.StatusOK || info.Participants != 10_000 {
		t.Fatalf("summary = %d %+v", code, info)
	}
	res := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			do(t, h, "GET", "/v1/campaigns/default", "", nil)
		}
	})
	if got := res.AllocedBytesPerOp(); got >= 64<<10 {
		t.Fatalf("one campaign summary allocates %d bytes, want < 64 KiB", got)
	}
}
