package store

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"incentivetree/internal/server"
)

// TestLeaderboardRouting: the per-campaign splice and the legacy alias
// both reach the leaderboard endpoint, and its error paths surface
// through the store handler with the right status codes.
func TestLeaderboardRouting(t *testing.T) {
	st := openStore(t, testConfig(t.TempDir()))
	h := st.Handler()

	if code := do(t, h, "POST", "/v1/campaigns", `{"id":"acme","mechanism":"geometric"}`, nil); code != http.StatusCreated {
		t.Fatalf("create campaign: %d", code)
	}
	c, _ := st.Get("acme")
	for _, name := range []string{"alice", "bob"} {
		sponsor := ""
		if name != "alice" {
			sponsor = "alice"
		}
		if err := c.Server().Join(name, sponsor); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Server().Contribute("bob", 3); err != nil {
		t.Fatal(err)
	}

	var board struct {
		K       int `json:"k"`
		Leaders []struct {
			Name   string  `json:"name"`
			Reward float64 `json:"reward"`
		} `json:"leaders"`
	}
	if code := do(t, h, "GET", "/v1/campaigns/acme/leaderboard?k=1", "", &board); code != http.StatusOK {
		t.Fatalf("campaign leaderboard: %d", code)
	}
	if board.K != 1 || len(board.Leaders) != 1 || board.Leaders[0].Name != "bob" {
		t.Fatalf("leaderboard = %+v, want bob on top", board)
	}

	// Legacy alias serves the default campaign.
	if code := do(t, h, "GET", "/v1/leaderboard", "", nil); code != http.StatusOK {
		t.Fatalf("legacy leaderboard: %d", code)
	}

	// Unknown campaign is a JSON 404.
	var e errorResponse
	if code := do(t, h, "GET", "/v1/campaigns/ghost/leaderboard", "", &e); code != http.StatusNotFound {
		t.Fatalf("ghost leaderboard: %d", code)
	}
	if !strings.Contains(e.Error, "ghost") {
		t.Fatalf("404 body = %+v, want the campaign named", e)
	}

	// Malformed k is the endpoint's own 400, not a routing error.
	if code := do(t, h, "GET", "/v1/campaigns/acme/leaderboard?k=zero", "", &e); code != http.StatusBadRequest {
		t.Fatalf("k=zero: %d", code)
	}
	if !strings.Contains(e.Error, "k must be") {
		t.Fatalf("400 body = %+v", e)
	}
}

// TestShedOverStoreHandler wedges the default campaign's drainer
// behind a held snapshot read lock, fills its depth-1 queue, and checks
// the store handler relays the shed as 429 with Retry-After and a JSON
// error body.
func TestShedOverStoreHandler(t *testing.T) {
	cfg := testConfig(t.TempDir())
	cfg.BatchMax = 1
	cfg.QueueDepth = 1
	st := openStore(t, cfg)
	h := st.Handler()

	c, ok := st.Get(DefaultID)
	if !ok {
		t.Fatal("no default campaign")
	}
	srv := c.Server()
	if err := srv.Join("alice", ""); err != nil {
		t.Fatal(err)
	}

	held := make(chan struct{})
	release := make(chan struct{})
	snapDone := make(chan struct{})
	go func() {
		srv.SnapshotAt(func() {
			close(held)
			<-release
		})
		close(snapDone)
	}()
	<-held

	// Same wedge as the server-level test: with two submits pending and
	// the queue reading 1, one op is in flight against the held lock and
	// the other occupies the queue's only slot.
	resc := make(chan error, 8)
	submit := func() {
		go func() {
			_, err := srv.SubmitContribute(context.Background(), "alice", 1)
			resc <- err
		}()
	}
	pending := 2
	submit()
	submit()
	deadline := time.Now().Add(10 * time.Second)
	for {
		if srv.IngestQueueLen() == 1 && pending == 2 {
			break
		}
		select {
		case err := <-resc:
			if !errors.Is(err, server.ErrQueueFull) {
				t.Fatalf("unexpected early result: %v", err)
			}
			pending--
			submit()
			pending++
		default:
		}
		if time.Now().After(deadline) {
			t.Fatalf("queue never wedged: queue=%d", srv.IngestQueueLen())
		}
		time.Sleep(time.Millisecond)
	}

	r := httptest.NewRequest("POST", "/v1/contribute", strings.NewReader(`{"name":"alice","amount":1}`))
	w := httptest.NewRecorder()
	h.ServeHTTP(w, r)
	if w.Code != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429 (body %q)", w.Code, w.Body.String())
	}
	if got := w.Header().Get("Retry-After"); got != "1" {
		t.Fatalf("Retry-After = %q, want \"1\"", got)
	}
	var body errorResponse
	if err := json.Unmarshal(w.Body.Bytes(), &body); err != nil || body.Error == "" {
		t.Fatalf("429 body %q not a JSON error: %v", w.Body.String(), err)
	}

	close(release)
	<-snapDone
	for i := 0; i < pending; i++ {
		if err := <-resc; err != nil {
			t.Fatalf("wedged op failed after release: %v", err)
		}
	}
}

// TestBatchedWritesAcrossCampaigns: each campaign gets its own
// write queue; concurrent writes land in the right journals and survive
// a store reopen.
func TestBatchedWritesAcrossCampaigns(t *testing.T) {
	dir := t.TempDir()
	cfg := testConfig(dir)
	st := openStore(t, cfg)
	h := st.Handler()

	if code := do(t, h, "POST", "/v1/campaigns", `{"id":"acme","mechanism":"geometric"}`, nil); code != http.StatusCreated {
		t.Fatalf("create: %d", code)
	}
	for _, id := range []string{DefaultID, "acme"} {
		if code := do(t, h, "POST", "/v1/campaigns/"+id+"/join", `{"name":"root"}`, nil); code != http.StatusCreated {
			t.Fatalf("join %s: %d", id, code)
		}
		for i := 0; i < 8; i++ {
			body := fmt.Sprintf(`{"name":"root","amount":%d}`, i+1)
			if code := do(t, h, "POST", "/v1/campaigns/"+id+"/contribute", body, nil); code != http.StatusOK {
				t.Fatalf("contribute %s: %d", id, code)
			}
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st2 := openStore(t, cfg)
	for _, id := range []string{DefaultID, "acme"} {
		var resp struct {
			Total float64 `json:"total_contribution"`
		}
		if code := do(t, st2.Handler(), "GET", "/v1/campaigns/"+id+"/rewards", "", &resp); code != http.StatusOK {
			t.Fatalf("rewards %s after reopen: %d", id, code)
		}
		if resp.Total != 36 {
			t.Fatalf("campaign %s total = %v, want 36", id, resp.Total)
		}
	}
}
