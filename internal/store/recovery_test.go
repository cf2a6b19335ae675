package store

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"incentivetree/internal/journal"
)

// rewardsBytes fetches the raw /v1/rewards body of one campaign — the
// byte-identity currency of the recovery tests.
func rewardsBytes(t *testing.T, h http.Handler, id string) []byte {
	t.Helper()
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest("GET", "/v1/campaigns/"+id+"/rewards", nil))
	if w.Code != http.StatusOK {
		t.Fatalf("rewards %s = %d: %s", id, w.Code, w.Body.String())
	}
	return append([]byte(nil), w.Body.Bytes()...)
}

// postJSON sends one write through the handler, failing on any
// non-2xx status (safe to call from worker goroutines).
func postJSON(h http.Handler, path, body string) error {
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest("POST", path, strings.NewReader(body)))
	if w.Code < 200 || w.Code >= 300 {
		return fmt.Errorf("POST %s = %d: %s", path, w.Code, w.Body.String())
	}
	return nil
}

// workload drives one campaign with conc concurrent writers, each
// joining a private chain and contributing deterministic amounts.
func workload(t *testing.T, h http.Handler, id string, conc, ops int) {
	t.Helper()
	var wg sync.WaitGroup
	errs := make(chan error, conc)
	for g := 0; g < conc; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)*97 + 13))
			sponsor := ""
			for i := 0; i < ops; i++ {
				name := fmt.Sprintf("%s-w%d-%d", id, g, i)
				if err := postJSON(h, "/v1/campaigns/"+id+"/join",
					fmt.Sprintf(`{"name":%q,"sponsor":%q}`, name, sponsor)); err != nil {
					errs <- err
					return
				}
				if err := postJSON(h, "/v1/campaigns/"+id+"/contribute",
					fmt.Sprintf(`{"name":%q,"amount":%v}`, name, 0.5+rng.Float64()*3)); err != nil {
					errs <- err
					return
				}
				sponsor = name
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestKillRestartEquivalence is the acceptance test: several campaigns
// written concurrently, checkpointed mid-stream, hard-crashed (no
// Close) with a torn journal tail, then recovered — every campaign's
// /v1/rewards table must be byte-identical to its pre-crash one.
func TestKillRestartEquivalence(t *testing.T) {
	dir := t.TempDir()
	cfg := testConfig(dir)
	st, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// No Close: the first store "crashes" — its journal file handles are
	// simply abandoned.
	h := st.Handler()

	campaigns := map[string]string{"alpha": "tdrm", "beta": "geometric", "gamma": "cdrm-reciprocal"}
	for id, mech := range campaigns {
		if _, err := st.Create(Meta{ID: id, Mechanism: mech}); err != nil {
			t.Fatal(err)
		}
	}

	// Concurrent writers on every campaign, with checkpoints racing the
	// write stream (the checkpointer goroutine in production).
	stop := make(chan struct{})
	var cpWG sync.WaitGroup
	cpWG.Add(1)
	go func() {
		defer cpWG.Done()
		for {
			select {
			case <-stop:
				return
			default:
				st.CheckpointAll()
			}
		}
	}()
	var wg sync.WaitGroup
	for id := range campaigns {
		wg.Add(1)
		go func(id string) {
			defer wg.Done()
			workload(t, h, id, 4, 15)
		}(id)
	}
	wg.Wait()
	close(stop)
	cpWG.Wait()
	// One final mid-stream checkpoint so part of the state is only in
	// snapshots, then a few more writes so part is only in journals.
	if err := st.CheckpointAll(); err != nil {
		t.Fatal(err)
	}
	for id := range campaigns {
		if err := postJSON(h, "/v1/campaigns/"+id+"/contribute",
			fmt.Sprintf(`{"name":%q,"amount":1.25}`, id+"-w0-0")); err != nil {
			t.Fatal(err)
		}
	}

	pre := map[string][]byte{}
	seqs := map[string]uint64{}
	for id := range campaigns {
		pre[id] = rewardsBytes(t, h, id)
		c, _ := st.Get(id)
		seqs[id] = c.Server().LastSeq()
	}

	// Hard crash: tear beta's journal tail mid-append.
	betaLog := filepath.Join(dir, "campaigns", "beta", "journal.log")
	intact, err := os.ReadFile(betaLog)
	if err != nil {
		t.Fatal(err)
	}
	appendTornRecord(t, betaLog, journal.Event{Seq: seqs["beta"] + 1, Kind: journal.KindContribute, Name: "beta-w0-0", Amount: 1})

	// Recover into a second store over the same directory.
	st2, err := Open(cfg)
	if err != nil {
		t.Fatalf("recovery failed: %v", err)
	}
	defer st2.Close()
	h2 := st2.Handler()
	if got := st2.Len(); got != len(campaigns)+1 { // + default
		t.Fatalf("recovered %d campaigns, want %d", got, len(campaigns)+1)
	}
	for id := range campaigns {
		post := rewardsBytes(t, h2, id)
		if !bytes.Equal(pre[id], post) {
			t.Errorf("%s: recovered rewards differ from pre-crash\npre:  %s\npost: %s", id, pre[id], post)
		}
		c, _ := st2.Get(id)
		if got := c.Server().LastSeq(); got != seqs[id] {
			t.Errorf("%s: recovered lastSeq = %d, want %d", id, got, seqs[id])
		}
	}

	// The torn fragment is gone from disk and appends continue cleanly.
	data, err := os.ReadFile(betaLog)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, intact) {
		t.Fatalf("torn tail survived recovery: %d bytes, want %d", len(data), len(intact))
	}
	for id := range campaigns {
		if err := postJSON(h2, "/v1/campaigns/"+id+"/join", `{"name":"post-crash"}`); err != nil {
			t.Fatalf("%s: write after recovery: %v", id, err)
		}
		c, _ := st2.Get(id)
		if got := c.Server().LastSeq(); got != seqs[id]+1 {
			t.Errorf("%s: post-recovery seq = %d, want %d", id, got, seqs[id]+1)
		}
	}
}

// TestCheckpointCompactsJournal asserts the second acceptance
// invariant: a checkpoint cycle strictly reduces the on-disk journal.
func TestCheckpointCompactsJournal(t *testing.T) {
	dir := t.TempDir()
	st := openStore(t, testConfig(dir))
	h := st.Handler()
	if _, err := st.Create(Meta{ID: "acme"}); err != nil {
		t.Fatal(err)
	}
	workload(t, h, "acme", 2, 10)

	logPath := filepath.Join(dir, "campaigns", "acme", "journal.log")
	before, err := os.Stat(logPath)
	if err != nil {
		t.Fatal(err)
	}
	if before.Size() == 0 {
		t.Fatal("workload wrote no journal bytes")
	}
	preRewards := rewardsBytes(t, h, "acme")

	c, _ := st.Get("acme")
	reclaimed, err := st.Checkpoint(c)
	if err != nil {
		t.Fatal(err)
	}
	if reclaimed != before.Size() {
		t.Fatalf("reclaimed %d bytes, want the whole %d-byte journal", reclaimed, before.Size())
	}
	after, err := os.Stat(logPath)
	if err != nil {
		t.Fatal(err)
	}
	if after.Size() >= before.Size() {
		t.Fatalf("journal grew: %d -> %d bytes", before.Size(), after.Size())
	}
	if _, err := os.Stat(filepath.Join(dir, "campaigns", "acme", "snapshot.bin")); err != nil {
		t.Fatalf("snapshot missing after checkpoint: %v", err)
	}

	// A second checkpoint with nothing new is a no-op.
	if reclaimed, err := st.Checkpoint(c); err != nil || reclaimed != 0 {
		t.Fatalf("idle checkpoint = %d, %v", reclaimed, err)
	}

	// Snapshot-only recovery (empty journal suffix) is still exact.
	st.Close()
	st2 := openStore(t, testConfig(dir))
	if post := rewardsBytes(t, st2.Handler(), "acme"); !bytes.Equal(preRewards, post) {
		t.Fatalf("snapshot-only recovery differs\npre:  %s\npost: %s", preRewards, post)
	}
}

// TestRecoveryGapDetection: a journal whose first event does not
// directly extend the snapshot means lost events — startup must fail
// loudly rather than serve silently wrong state.
func TestRecoveryGapDetection(t *testing.T) {
	dir := t.TempDir()
	cfg := testConfig(dir)
	st, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Create(Meta{ID: "gappy"}); err != nil {
		t.Fatal(err)
	}
	c, _ := st.Get("gappy")
	for i := 0; i < 3; i++ {
		if err := c.Server().Join(fmt.Sprintf("p%d", i), ""); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := st.Checkpoint(c); err != nil {
		t.Fatal(err)
	}
	for i := 3; i < 6; i++ {
		if err := c.Server().Join(fmt.Sprintf("p%d", i), ""); err != nil {
			t.Fatal(err)
		}
	}
	// Crash without Close — a graceful Close would checkpoint and empty
	// the journal, leaving nothing to doctor.

	// Lose the journal's first post-snapshot event (seq 4).
	logPath := filepath.Join(dir, "campaigns", "gappy", "journal.log")
	data, err := os.ReadFile(logPath)
	if err != nil {
		t.Fatal(err)
	}
	d := journal.NewDecoder(bytes.NewReader(data))
	if e, err := d.Next(); err != nil || e.Seq != 4 {
		t.Fatalf("journal's first record = %+v, %v; want seq 4", e, err)
	}
	if err := os.WriteFile(logPath, data[d.Offset():], 0o644); err != nil {
		t.Fatal(err)
	}

	if _, err := Open(cfg); err == nil || !strings.Contains(err.Error(), "missing events") {
		t.Fatalf("gap must fail startup, got %v", err)
	}
}

// TestSizeTriggeredCheckpoint runs the background checkpointer with a
// tiny byte threshold and waits for it to compact on its own.
func TestSizeTriggeredCheckpoint(t *testing.T) {
	dir := t.TempDir()
	cfg := testConfig(dir)
	cfg.CheckpointBytes = 64 // a couple of events
	st := openStore(t, cfg)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go st.Run(ctx)
	h := st.Handler()

	snapPath := filepath.Join(dir, "campaigns", DefaultID, "snapshot.bin")
	deadline := time.Now().Add(5 * time.Second)
	for i := 0; ; i++ {
		if err := postJSON(h, "/v1/join", fmt.Sprintf(`{"name":"p%d"}`, i)); err != nil {
			t.Fatal(err)
		}
		if _, err := os.Stat(snapPath); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("size trigger never produced a snapshot")
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestCloseCheckpoints: a graceful shutdown leaves every campaign
// snapshotted with an empty journal, so the next boot replays nothing.
func TestCloseCheckpoints(t *testing.T) {
	dir := t.TempDir()
	cfg := testConfig(dir)
	st, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	h := st.Handler()
	if _, err := st.Create(Meta{ID: "acme"}); err != nil {
		t.Fatal(err)
	}
	workload(t, h, "acme", 1, 5)
	pre := rewardsBytes(t, h, "acme")
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	logStat, err := os.Stat(filepath.Join(dir, "campaigns", "acme", "journal.log"))
	if err != nil {
		t.Fatal(err)
	}
	if logStat.Size() != 0 {
		t.Fatalf("journal not compacted on close: %d bytes", logStat.Size())
	}
	st2 := openStore(t, cfg)
	if post := rewardsBytes(t, st2.Handler(), "acme"); !bytes.Equal(pre, post) {
		t.Fatalf("post-close recovery differs\npre:  %s\npost: %s", pre, post)
	}
}
