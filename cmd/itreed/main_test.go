package main

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"incentivetree/internal/journal"
	"incentivetree/internal/store"
)

func TestSetupWithSeeds(t *testing.T) {
	var out bytes.Buffer
	d, err := setup([]string{"-seed", "alice, bob", "-mechanism", "geometric"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	defer d.cleanup()
	if d.addr != ":8080" {
		t.Fatalf("addr = %q", d.addr)
	}
	if err := d.server.Contribute("alice", 2); err != nil {
		t.Fatalf("seed participant missing: %v", err)
	}
	if !strings.Contains(out.String(), "Geometric") {
		t.Fatalf("banner = %q", out.String())
	}
	// The handler serves.
	ts := httptest.NewServer(d.handler)
	defer ts.Close()
}

func TestSetupErrors(t *testing.T) {
	var out bytes.Buffer
	if _, err := setup([]string{"-mechanism", "nope"}, &out); err == nil {
		t.Fatal("unknown mechanism should fail")
	}
	if _, err := setup([]string{"-phi", "0"}, &out); err == nil {
		t.Fatal("invalid params should fail")
	}
	if _, err := setup([]string{"-seed", "dup,dup"}, &out); err == nil {
		t.Fatal("duplicate seeds should fail")
	}
	if _, err := setup([]string{"-journal-sync", "sometimes"}, &out); err == nil {
		t.Fatal("bad sync policy should fail")
	}
	// The flat-file journal, the on-disk format switch and the
	// process-wide epoch budget are gone.
	for _, flag := range []string{"-journal", "-format", "-epoch-budget"} {
		if _, err := setup([]string{flag, "x"}, &out); err == nil || !strings.Contains(err.Error(), "not defined") {
			t.Errorf("%s: err = %v, want an unknown-flag error", flag, err)
		}
	}
}

// defaultJournal returns the default campaign's journal path under a
// data directory.
func defaultJournal(dataDir string) string {
	return filepath.Join(dataDir, "campaigns", store.DefaultID, "journal.log")
}

// records encodes events as binary journal records.
func records(t *testing.T, events ...journal.Event) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc := journal.NewEncoder(&buf)
	for _, e := range events {
		if err := enc.Encode(e); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

// appendFile appends data to the file at path, the way a daemon that
// crashed before its next checkpoint leaves journal records behind.
func appendFile(t *testing.T, path string, data []byte) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND|os.O_CREATE, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.Write(data); err != nil {
		t.Fatal(err)
	}
}

func TestSetupJournalRecovery(t *testing.T) {
	dir := t.TempDir()
	args := []string{"-data-dir", dir, "-checkpoint-interval", "-1s", "-checkpoint-bytes", "-1"}

	// First run: write some state, then stop (which checkpoints).
	var out bytes.Buffer
	d, err := setup(args, &out)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.server.Join("ada", ""); err != nil {
		t.Fatal(err)
	}
	if err := d.server.Join("bo", "ada"); err != nil {
		t.Fatal(err)
	}
	if err := d.server.Contribute("bo", 4); err != nil {
		t.Fatal(err)
	}
	d.cleanup()
	// A crash after two more writes leaves them only in the journal.
	appendFile(t, defaultJournal(dir), records(t,
		journal.Event{Seq: 4, Kind: journal.KindJoin, Name: "cy", Sponsor: "bo"},
		journal.Event{Seq: 5, Kind: journal.KindContribute, Name: "cy", Amount: 1}))

	// Second run: state comes back from snapshot plus journal suffix.
	d2, err := setup(args, &out)
	if err != nil {
		t.Fatal(err)
	}
	if snap := d2.server.SnapshotState(); snap.Tree.Total() != 5 || snap.LastSeq != 5 {
		t.Fatalf("recovered total = %v at seq %d, want 5 at 5", snap.Tree.Total(), snap.LastSeq)
	}
	// New writes continue the sequence.
	if err := d2.server.Contribute("ada", 1); err != nil {
		t.Fatal(err)
	}
	d2.cleanup()
	d3, err := setup(args, &out)
	if err != nil {
		t.Fatal(err)
	}
	defer d3.cleanup()
	if snap := d3.server.SnapshotState(); snap.Tree.Total() != 6 || snap.LastSeq != 6 {
		t.Fatalf("after restart: total = %v at seq %d, want 6 at 6", snap.Tree.Total(), snap.LastSeq)
	}
}

func TestSetupRejectsMidLogCorruption(t *testing.T) {
	dir := t.TempDir()
	var out bytes.Buffer
	d, err := setup([]string{"-data-dir", dir}, &out)
	if err != nil {
		t.Fatal(err)
	}
	d.cleanup()
	appendFile(t, defaultJournal(dir), []byte("garbage\n"))
	appendFile(t, defaultJournal(dir), records(t, journal.Event{Seq: 1, Kind: journal.KindJoin, Name: "ada"}))
	if _, err := setup([]string{"-data-dir", dir}, &out); err == nil {
		t.Fatal("mid-log corruption should fail startup")
	}
}

func TestSetupRepairsTornTail(t *testing.T) {
	dir := t.TempDir()
	var out bytes.Buffer
	d, err := setup([]string{"-data-dir", dir}, &out)
	if err != nil {
		t.Fatal(err)
	}
	d.cleanup()
	good := records(t,
		journal.Event{Seq: 1, Kind: journal.KindJoin, Name: "ada"},
		journal.Event{Seq: 2, Kind: journal.KindContribute, Name: "ada", Amount: 2})
	torn := records(t, journal.Event{Seq: 3, Kind: journal.KindContribute, Name: "ada", Amount: 9})
	appendFile(t, defaultJournal(dir), good)
	appendFile(t, defaultJournal(dir), torn[:len(torn)/2]) // crash mid-append

	d, err = setup([]string{"-data-dir", dir}, &out)
	if err != nil {
		t.Fatalf("torn tail should be tolerated: %v", err)
	}
	// The partial record is gone from disk, and appends continue the
	// sequence right after the complete ones.
	data, err := os.ReadFile(defaultJournal(dir))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, good) {
		t.Fatalf("repaired journal is %d bytes, want the %d complete ones", len(data), len(good))
	}
	if err := d.server.Contribute("ada", 3); err != nil {
		t.Fatal(err)
	}
	if seq := d.server.LastSeq(); seq != 3 {
		t.Fatalf("next append got seq %d, want 3", seq)
	}
	d.cleanup()

	// Restart once more: fully clean recovery.
	d2, err := setup([]string{"-data-dir", dir}, &out)
	if err != nil {
		t.Fatal(err)
	}
	defer d2.cleanup()
	if snap := d2.server.SnapshotState(); snap.Tree.Total() != 5 {
		t.Fatalf("recovered total = %v, want 5", snap.Tree.Total())
	}
}

func TestMetricsEndpoint(t *testing.T) {
	dir := t.TempDir()
	var out bytes.Buffer
	d, err := setup([]string{"-mechanism", "geometric", "-data-dir", dir}, &out)
	if err != nil {
		t.Fatal(err)
	}
	defer d.cleanup()
	ts := httptest.NewServer(d.handler)
	defer ts.Close()

	// Generate traffic: a join, a contribution, a read, and a 4xx.
	post := func(path, body string) {
		resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}
	post("/v1/join", `{"name":"ada"}`)
	post("/v1/contribute", `{"name":"ada","amount":2}`)
	post("/v1/contribute", `{"name":"ghost","amount":1}`)
	resp, err := http.Get(ts.URL + "/v1/rewards")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics status = %d", resp.StatusCode)
	}
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	body := buf.String()
	// The acceptance surface: per-route latency histograms, journal
	// counters, and the budget gauge. The registry is process-wide, so
	// assert presence, not exact counts.
	for _, want := range []string{
		`itree_http_requests_total{code="2xx",route="POST /v1/join"}`,
		`itree_http_requests_total{code="4xx",route="POST /v1/contribute"}`,
		`http_request_duration_seconds_bucket{route="GET /v1/rewards",le="+Inf"}`,
		"# TYPE itree_http_request_duration_seconds histogram",
		"itree_journal_appends_total",
		"itree_journal_append_bytes_total",
		"itree_journal_torn_tails_total",
		`itree_participants{campaign="default"} 1`,
		"itree_budget_utilization",
		`itree_contribution_total{campaign="default"} 2`,
		"# TYPE itree_mechanism_rewards_seconds histogram",
		`mechanism_rewards_seconds_count{mechanism="Geometric(`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

func TestRunServesAndDrainsOnSignal(t *testing.T) {
	dir := t.TempDir()
	var out bytes.Buffer
	d, err := setup([]string{"-addr", "127.0.0.1:0", "-debug-addr", "127.0.0.1:0", "-data-dir", dir}, &out)
	if err != nil {
		t.Fatal(err)
	}
	defer d.cleanup()

	addrs := make(map[string]string)
	var mu sync.Mutex
	ready := make(chan struct{}, 2)
	d.listening = func(name, addr string) {
		mu.Lock()
		addrs[name] = addr
		mu.Unlock()
		ready <- struct{}{}
	}

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	var runOut bytes.Buffer
	go func() { done <- run(ctx, d, &runOut) }()
	for i := 0; i < 2; i++ {
		select {
		case <-ready:
		case <-time.After(5 * time.Second):
			t.Fatal("listeners not ready")
		}
	}
	mu.Lock()
	api, debug := addrs["api"], addrs["debug"]
	mu.Unlock()

	// The daemon serves API writes and the debug endpoints.
	resp, err := http.Post("http://"+api+"/v1/join", "application/json", strings.NewReader(`{"name":"ada"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("join status = %d", resp.StatusCode)
	}
	resp, err = http.Get("http://" + debug + "/debug/vars")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/debug/vars status = %d", resp.StatusCode)
	}
	resp, err = http.Get("http://" + debug + "/debug/pprof/cmdline")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/debug/pprof/cmdline status = %d", resp.StatusCode)
	}

	// Graceful shutdown: run returns cleanly, the join survives it.
	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run returned %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("run did not drain in time")
	}
	if !strings.Contains(runOut.String(), "drained") {
		t.Fatalf("run output = %q", runOut.String())
	}
	d.cleanup()
	d2, err := setup([]string{"-data-dir", dir}, &out)
	if err != nil {
		t.Fatal(err)
	}
	defer d2.cleanup()
	if err := d2.server.Contribute("ada", 1); err != nil {
		t.Fatalf("store lost the join: %v", err)
	}
}

func TestDebugHandlerRoutes(t *testing.T) {
	ts := httptest.NewServer(debugHandler())
	defer ts.Close()
	for _, path := range []string{"/debug/pprof/", "/debug/vars"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s status = %d", path, resp.StatusCode)
		}
	}
}

func TestSetupDataDirMultiCampaign(t *testing.T) {
	dir := t.TempDir()
	args := []string{"-data-dir", dir, "-checkpoint-interval", "-1s", "-checkpoint-bytes", "-1",
		"-journal-sync", "always"}

	// First run: create a campaign beside the default one and write to both.
	var out bytes.Buffer
	d, err := setup(args, &out)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(d.handler)
	post := func(path, body string, want int) {
		t.Helper()
		resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != want {
			t.Fatalf("POST %s = %d, want %d", path, resp.StatusCode, want)
		}
	}
	post("/v1/campaigns", `{"id":"acme","mechanism":"geometric"}`, http.StatusCreated)
	post("/v1/campaigns/acme/join", `{"name":"ada"}`, http.StatusCreated)
	post("/v1/campaigns/acme/contribute", `{"name":"ada","amount":3}`, http.StatusOK)
	post("/v1/join", `{"name":"zed"}`, http.StatusCreated) // legacy alias -> default campaign
	post("/v1/campaigns/acme/checkpoint", "", http.StatusOK)
	ts.Close()
	d.cleanup()
	if !strings.Contains(out.String(), "campaign(s) under "+dir) {
		t.Fatalf("banner = %q", out.String())
	}

	// Second run: both campaigns come back from disk.
	out.Reset()
	d2, err := setup(args, &out)
	if err != nil {
		t.Fatal(err)
	}
	defer d2.cleanup()
	if !strings.Contains(out.String(), "2 campaign(s)") {
		t.Fatalf("banner = %q", out.String())
	}
	acme, ok := d2.store.Get("acme")
	if !ok {
		t.Fatal("acme not recovered")
	}
	if total := acme.Server().SnapshotState().Tree.Total(); total != 3 {
		t.Fatalf("acme total = %v, want 3", total)
	}
	if snap := d2.server.SnapshotState(); snap.Tree.NumParticipants() != 1 {
		t.Fatalf("default campaign participants = %d, want 1", snap.Tree.NumParticipants())
	}
	// The store's own metrics are exposed.
	ts2 := httptest.NewServer(d2.handler)
	defer ts2.Close()
	resp, err := http.Get(ts2.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"itree_campaigns 2",
		`itree_participants{campaign="acme"} 1`,
		"itree_checkpoints_total",
		"itree_journal_syncs_total",
	} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

func TestSetupFollowerFlagValidation(t *testing.T) {
	var out bytes.Buffer
	for _, args := range [][]string{
		{"-role", "follower"}, // no -primary
		{"-role", "follower", "-primary", "http://x", "-data-dir", "d"},        // no disk state
		{"-role", "follower", "-primary", "http://x", "-seed", "a"},            // read-only
		{"-role", "follower", "-primary", "http://x", "-epoch-interval", "1s"}, // followers do not settle
		{"-role", "chief"},       // unknown role
		{"-primary", "http://x"}, // follower-only flag
	} {
		if _, err := setup(args, &out); err == nil {
			t.Errorf("setup(%v) should fail", args)
		}
	}
}

// startDaemon boots a full daemon (setup + run) on a loopback port and
// returns its API address plus a stopper.
func startDaemon(t *testing.T, args ...string) (string, func()) {
	t.Helper()
	var out bytes.Buffer
	d, err := setup(append([]string{"-addr", "127.0.0.1:0"}, args...), &out)
	if err != nil {
		t.Fatal(err)
	}
	ready := make(chan string, 1)
	d.listening = func(name, addr string) {
		if name == "api" {
			ready <- addr
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- run(ctx, d, &out) }()
	var api string
	select {
	case api = <-ready:
	case <-time.After(5 * time.Second):
		t.Fatalf("api listener not ready; output: %s", out.String())
	}
	return api, func() {
		cancel()
		select {
		case err := <-done:
			if err != nil {
				t.Errorf("run: %v", err)
			}
		case <-time.After(10 * time.Second):
			t.Error("daemon did not stop")
		}
		d.cleanup()
	}
}

func TestFollowerDaemonReplicatesPrimary(t *testing.T) {
	papi, pstop := startDaemon(t, "-data-dir", t.TempDir())
	defer pstop()
	fapi, fstop := startDaemon(t, "-role", "follower", "-primary", "http://"+papi)
	defer fstop()

	for _, body := range []string{
		`{"name":"ada"}`, `{"name":"bo","sponsor":"ada"}`,
	} {
		resp, err := http.Post("http://"+papi+"/v1/join", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusCreated {
			t.Fatalf("join: HTTP %d", resp.StatusCode)
		}
	}

	fetch := func(url string) (int, http.Header, []byte) {
		resp, err := http.Get(url)
		if err != nil {
			t.Fatalf("GET %s: %v", url, err)
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body)
		return resp.StatusCode, resp.Header, buf.Bytes()
	}

	// The follower converges to byte-identical rewards, stamped with a
	// staleness header.
	_, _, want := fetch("http://" + papi + "/v1/rewards")
	deadline := time.Now().Add(10 * time.Second)
	for {
		status, hdr, got := fetch("http://" + fapi + "/v1/rewards")
		if status == http.StatusOK && bytes.Equal(got, want) {
			if s := hdr.Get("X-Itree-Staleness"); !strings.HasPrefix(s, "records=") {
				t.Fatalf("staleness header %q", s)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("follower never converged: HTTP %d, got %s want %s", status, got, want)
		}
		time.Sleep(10 * time.Millisecond)
	}

	// Writes are redirected to the primary, not applied locally.
	noRedirect := &http.Client{CheckRedirect: func(*http.Request, []*http.Request) error {
		return http.ErrUseLastResponse
	}}
	resp, err := noRedirect.Post("http://"+fapi+"/v1/join", "application/json", strings.NewReader(`{"name":"cy"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTemporaryRedirect {
		t.Fatalf("follower write: HTTP %d, want 307", resp.StatusCode)
	}
	if loc := resp.Header.Get("Location"); loc != "http://"+papi+"/v1/join" {
		t.Fatalf("Location %q", loc)
	}

	// The replica metric family is on the follower's /metrics surface.
	_, _, metrics := fetch("http://" + fapi + "/metrics")
	for _, want := range []string{
		"itree_replica_lag_records", "itree_replica_lag_seconds",
		"itree_replica_applied_total", "itree_replica_resyncs_total",
	} {
		if !strings.Contains(string(metrics), want) {
			t.Errorf("follower /metrics missing %s", want)
		}
	}
}
