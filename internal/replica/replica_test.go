package replica_test

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"incentivetree/internal/core"
	"incentivetree/internal/experiments"
	"incentivetree/internal/obs"
	"incentivetree/internal/replica"
	"incentivetree/internal/store"
)

const waitTimeout = 10 * time.Second

func newMech(name string, p core.Params) (core.Mechanism, error) {
	return experiments.ByName(p, name)
}

// primary is a store-backed itreed API under test, with crash
// (listener close, no final checkpoint) and clean-stop teardown.
type primary struct {
	t   *testing.T
	dir string
	st  *store.Store
	ts  *httptest.Server

	stopped bool
}

func startPrimary(t *testing.T, dir string) *primary {
	t.Helper()
	st, err := store.Open(store.Config{
		DataDir:            dir,
		CheckpointInterval: -1, // checkpoints only when a test asks
		CheckpointBytes:    -1,
		BatchMax:           1, // deterministic arrival-order journal
		NewMechanism:       newMech,
	})
	if err != nil {
		t.Fatal(err)
	}
	return &primary{t: t, dir: dir, st: st, ts: httptest.NewServer(st.Handler())}
}

// crash simulates kill -9: the listener dies, nothing is flushed or
// checkpointed, the journal keeps whatever was appended.
func (p *primary) crash() {
	if p.stopped {
		return
	}
	p.stopped = true
	p.ts.Close()
}

func (p *primary) stop() {
	if p.stopped {
		return
	}
	p.stopped = true
	p.ts.Close()
	if err := p.st.Close(); err != nil {
		p.t.Errorf("primary close: %v", err)
	}
}

// write appends n join+contribute pairs to a campaign, directly
// through its deployment (journaled exactly like HTTP writes).
func (p *primary) write(campaign string, start, n int) {
	p.t.Helper()
	c, ok := p.st.Get(campaign)
	if !ok {
		p.t.Fatalf("campaign %s not found", campaign)
	}
	srv := c.Server()
	for i := start; i < start+n; i++ {
		name := fmt.Sprintf("p%04d", i)
		if err := srv.Join(name, ""); err != nil {
			p.t.Fatal(err)
		}
		if err := srv.Contribute(name, float64(i%7)+0.25); err != nil {
			p.t.Fatal(err)
		}
	}
}

func (p *primary) lastSeq(campaign string) uint64 {
	p.t.Helper()
	c, ok := p.st.Get(campaign)
	if !ok {
		p.t.Fatalf("campaign %s not found", campaign)
	}
	return c.Server().LastSeq()
}

// follower is a follower-mode store plus its replication manager and
// middleware-wrapped listener.
type follower struct {
	t      *testing.T
	st     *store.Store
	mgr    *replica.Manager
	reg    *obs.Registry
	ts     *httptest.Server
	cancel context.CancelFunc
	done   chan struct{}

	stopped bool
}

func startFollower(t *testing.T, primaryURL string, maxStaleness time.Duration) *follower {
	t.Helper()
	reg := obs.NewRegistry()
	st, err := store.Open(store.Config{
		Follower:     true,
		Metrics:      reg,
		NewMechanism: newMech,
	})
	if err != nil {
		t.Fatal(err)
	}
	mgr, err := replica.NewManager(replica.Options{
		Primary:      primaryURL,
		Target:       st,
		Registry:     reg,
		MaxStaleness: maxStaleness,
		Refresh:      25 * time.Millisecond,
		Wait:         150 * time.Millisecond,
		MaxBackoff:   100 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	f := &follower{
		t:      t,
		st:     st,
		mgr:    mgr,
		reg:    reg,
		ts:     httptest.NewServer(mgr.Handler(st.Handler())),
		cancel: cancel,
		done:   make(chan struct{}),
	}
	go func() {
		mgr.Run(ctx)
		close(f.done)
	}()
	t.Cleanup(f.stop)
	return f
}

func (f *follower) stop() {
	if f.stopped {
		return
	}
	f.stopped = true
	f.cancel()
	<-f.done
	f.ts.Close()
}

// waitApplied blocks until the follower has applied through seq on the
// campaign (and is synced), or fails the test.
func (f *follower) waitApplied(campaign string, seq uint64) replica.Status {
	f.t.Helper()
	deadline := time.Now().Add(waitTimeout)
	for {
		st, ok := f.mgr.Status(campaign)
		if ok && st.State == replica.Synced && st.AppliedSeq >= seq {
			return st
		}
		if time.Now().After(deadline) {
			f.t.Fatalf("follower did not reach seq %d on %s (status %+v, tracked %v)", seq, campaign, st, ok)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// get fetches a URL and returns status, headers, and body.
func get(t *testing.T, url string) (int, http.Header, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: read: %v", url, err)
	}
	return resp.StatusCode, resp.Header, body
}

// mustGet fails unless the URL answers 200, and returns the body.
func mustGet(t *testing.T, url string) []byte {
	t.Helper()
	status, _, body := get(t, url)
	if status != http.StatusOK {
		t.Fatalf("GET %s: HTTP %d: %s", url, status, body)
	}
	return body
}

// requireIdenticalReads asserts the primary and follower serve
// byte-identical responses for a campaign's full read surface.
func requireIdenticalReads(t *testing.T, primaryURL, followerURL, campaign string) {
	t.Helper()
	// /stats is excluded: it embeds a dump of the node's own metric
	// registry, which legitimately differs between primary and replica.
	for _, path := range []string{"/rewards", "/leaderboard?k=10", "/tree", "/epochs", "/claims"} {
		p := mustGet(t, primaryURL+"/v1/campaigns/"+campaign+path)
		f := mustGet(t, followerURL+"/v1/campaigns/"+campaign+path)
		if !bytes.Equal(p, f) {
			t.Fatalf("%s %s: primary and follower bytes differ:\nprimary:  %s\nfollower: %s", campaign, path, p, f)
		}
	}
}

func TestFollowerConvergesByteIdentical(t *testing.T) {
	p := startPrimary(t, t.TempDir())
	defer p.stop()

	// A second campaign beside the default one: replication is
	// per-campaign, discovered from the primary's campaign list.
	resp, err := http.Post(p.ts.URL+"/v1/campaigns", "application/json",
		strings.NewReader(`{"id":"acme","mechanism":"geometric"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create campaign: HTTP %d", resp.StatusCode)
	}
	p.write(store.DefaultID, 0, 12)
	p.write("acme", 0, 9)

	f := startFollower(t, p.ts.URL, 0)
	f.waitApplied(store.DefaultID, p.lastSeq(store.DefaultID))
	f.waitApplied("acme", p.lastSeq("acme"))
	requireIdenticalReads(t, p.ts.URL, f.ts.URL, store.DefaultID)
	requireIdenticalReads(t, p.ts.URL, f.ts.URL, "acme")

	// The legacy unprefixed surface maps to the default campaign on
	// both sides.
	if pb, fb := mustGet(t, p.ts.URL+"/v1/rewards"), mustGet(t, f.ts.URL+"/v1/rewards"); !bytes.Equal(pb, fb) {
		t.Fatalf("legacy rewards differ:\nprimary:  %s\nfollower: %s", pb, fb)
	}

	// New writes keep flowing through the stream.
	p.write(store.DefaultID, 100, 8)
	st := f.waitApplied(store.DefaultID, p.lastSeq(store.DefaultID))
	requireIdenticalReads(t, p.ts.URL, f.ts.URL, store.DefaultID)
	if st.Resyncs != 1 {
		t.Fatalf("steady-state tailing should bootstrap exactly once, got %d resyncs", st.Resyncs)
	}

	// Reads carry the staleness header; caught up means zero records.
	_, hdr, _ := get(t, f.ts.URL+"/v1/campaigns/acme/rewards")
	if s := hdr.Get(replica.HeaderStaleness); !strings.HasPrefix(s, "records=0 seconds=") {
		t.Fatalf("staleness header = %q, want records=0 seconds=...", s)
	}
}

func TestFollowerHashMatchesPrimaryJournal(t *testing.T) {
	dir := t.TempDir()
	p := startPrimary(t, dir)
	defer p.stop()
	f := startFollower(t, p.ts.URL, 0)

	// Bootstrap before any writes, so the follower's rolling hash
	// covers the journal from byte zero.
	deadline := time.Now().Add(waitTimeout)
	for {
		if st, ok := f.mgr.Status(store.DefaultID); ok && st.State == replica.Synced && st.BaseSeq == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("follower did not bootstrap at base seq 0")
		}
		time.Sleep(5 * time.Millisecond)
	}

	p.write(store.DefaultID, 0, 25)
	st := f.waitApplied(store.DefaultID, p.lastSeq(store.DefaultID))
	if st.BaseSeq != 0 {
		t.Fatalf("follower re-bootstrapped mid-test (base %d); hash comparison void", st.BaseSeq)
	}
	data, err := os.ReadFile(filepath.Join(dir, "campaigns", store.DefaultID, "journal.log"))
	if err != nil {
		t.Fatal(err)
	}
	want := sha256.Sum256(data)
	if got := st.AppliedHash; got != hex.EncodeToString(want[:]) {
		t.Fatalf("applied-record hash %s != primary journal hash %s", got, hex.EncodeToString(want[:]))
	}
}

func TestFollowerDropsDeletedCampaigns(t *testing.T) {
	p := startPrimary(t, t.TempDir())
	defer p.stop()
	resp, err := http.Post(p.ts.URL+"/v1/campaigns", "application/json", strings.NewReader(`{"id":"gone"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	p.write("gone", 0, 3)

	f := startFollower(t, p.ts.URL, 0)
	f.waitApplied("gone", p.lastSeq("gone"))

	req, _ := http.NewRequest(http.MethodDelete, p.ts.URL+"/v1/campaigns/gone", nil)
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()

	deadline := time.Now().Add(waitTimeout)
	for {
		_, tracked := f.mgr.Status("gone")
		_, stored := f.st.Get("gone")
		if !tracked && !stored {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("deleted campaign still on follower (tracked=%v stored=%v)", tracked, stored)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestJournalEndpointGapAndEmptyPoll(t *testing.T) {
	p := startPrimary(t, t.TempDir())
	defer p.stop()
	p.write(store.DefaultID, 0, 5) // seq 1..10
	base := p.ts.URL + "/v1/campaigns/" + store.DefaultID + "/replica/journal"

	cresp, err := http.Post(p.ts.URL+"/v1/campaigns/"+store.DefaultID+"/checkpoint", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	cresp.Body.Close()

	// Compacted prefix: a distinct 410 "snapshot required", never an
	// empty 200.
	status, _, body := get(t, base+"?from=1")
	if status != http.StatusGone {
		t.Fatalf("from=1 after checkpoint: HTTP %d (%s), want 410", status, body)
	}
	var gap struct {
		Error           string `json:"error"`
		CheckpointedSeq uint64 `json:"checkpointed_seq"`
	}
	if err := json.Unmarshal(body, &gap); err != nil {
		t.Fatalf("410 body %q: %v", body, err)
	}
	if gap.CheckpointedSeq != 10 || !strings.Contains(gap.Error, "snapshot required") {
		t.Fatalf("410 body = %+v, want checkpointed_seq 10 and 'snapshot required'", gap)
	}

	// Just past the checkpoint: an empty poll is a clean 200 stamped
	// with the committed sequence.
	status, hdr, body := get(t, base+"?from=11&wait=0")
	if status != http.StatusOK {
		t.Fatalf("from=11: HTTP %d (%s)", status, body)
	}
	if got := hdr.Get(replica.HeaderCommittedSeq); got != "10" {
		t.Fatalf("committed header %q, want 10", got)
	}
	if ct := hdr.Get("Content-Type"); ct != "application/octet-stream" {
		t.Fatalf("stream Content-Type %q, want application/octet-stream", ct)
	}
	if len(bytes.TrimSpace(body)) != 0 {
		t.Fatalf("empty poll returned records: %q", body)
	}

	// Bad cursors are rejected, not treated as 1.
	if status, _, _ := get(t, base+"?from=0"); status != http.StatusBadRequest {
		t.Fatalf("from=0: HTTP %d, want 400", status)
	}
}
