package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"incentivetree/internal/core"
	"incentivetree/internal/geometric"
	"incentivetree/internal/journal"
	"incentivetree/internal/obs"
)

// failWriter passes writes through until fail is set.
type failWriter struct {
	w    io.Writer
	fail bool
}

func (f *failWriter) Write(p []byte) (int, error) {
	if f.fail {
		return 0, errors.New("disk full")
	}
	return f.w.Write(p)
}

func newBatchedServer(t *testing.T, batchMax, queueDepth int) (*Server, *httptest.Server) {
	t.Helper()
	m, err := geometric.Default(core.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	s := New(m, WithGroupCommit(batchMax, queueDepth))
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

// TestContributeRejectsNonFinite: NaN fails every comparison, so the
// positivity check alone would admit it — and a NaN contribution would
// poison every reward downstream.
func TestContributeRejectsNonFinite(t *testing.T) {
	s, _ := newTestServer(t)
	if err := s.Join("alice", ""); err != nil {
		t.Fatal(err)
	}
	for _, amount := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		err := s.Contribute("alice", amount)
		if err == nil {
			t.Fatalf("Contribute(%v) succeeded", amount)
		}
		if !strings.Contains(err.Error(), "finite") {
			t.Fatalf("Contribute(%v) error = %v, want mention of finiteness", amount, err)
		}
	}
	p, err := s.participant("alice")
	if err != nil {
		t.Fatal(err)
	}
	if p.Contribution != 0 {
		t.Fatalf("contribution after rejected amounts = %v, want 0", p.Contribution)
	}
}

// rollbackArms names the two mechanisms the journal-failure tests run
// under, keyed by their historical subtest names: a Geometric campaign
// and a CDRM one, so the two arms cover two different folds.
var rollbackArms = []struct {
	name, mechanism string
}{
	{"incremental=false", "geometric"},
	{"incremental=true", "cdrm-reciprocal"},
}

// TestRollbackOnJournalFailure injects a journal write failure and
// checks every in-memory mutation of the failed batch is undone, so
// memory never diverges from what a restart would replay, and the
// served rewards still equal full evaluation bit for bit.
func TestRollbackOnJournalFailure(t *testing.T) {
	for _, arm := range rollbackArms {
		t.Run(arm.name, func(t *testing.T) {
			var buf bytes.Buffer
			fw := &failWriter{w: &buf}
			s := New(suiteMechanism(t, arm.mechanism), WithJournal(journal.NewWriter(fw, 1)))
			if err := s.Join("alice", ""); err != nil {
				t.Fatal(err)
			}
			if err := s.Contribute("alice", 2); err != nil {
				t.Fatal(err)
			}

			fw.fail = true
			if err := s.Join("bob", "alice"); err == nil || !strings.Contains(err.Error(), "journal append") {
				t.Fatalf("join during failure = %v, want journal append error", err)
			}
			if _, err := s.participant("bob"); err == nil {
				t.Fatal("bob exists after rolled-back join")
			}
			if err := s.Contribute("alice", 5); err == nil {
				t.Fatal("contribute during journal failure succeeded")
			}
			p, err := s.participant("alice")
			if err != nil {
				t.Fatal(err)
			}
			if p.Contribution != 2 {
				t.Fatalf("alice contribution = %v, want 2 (rolled back)", p.Contribution)
			}

			// A mixed batch fails atomically: the join and the contribute
			// both report the append error and both roll back.
			results := s.applyBatch([]journal.Event{
				{Kind: journal.KindJoin, Name: "carol", Sponsor: "alice"},
				{Kind: journal.KindContribute, Name: "alice", Amount: 3},
			})
			for i, r := range results {
				if r.err == nil || !strings.Contains(r.err.Error(), "journal append") {
					t.Fatalf("batch result %d = %v, want journal append error", i, r.err)
				}
			}
			if _, err := s.participant("carol"); err == nil {
				t.Fatal("carol exists after rolled-back batch")
			}
			if p, _ := s.participant("alice"); p.Contribution != 2 {
				t.Fatalf("alice contribution after rolled-back batch = %v, want 2", p.Contribution)
			}
			assertServedMatches(t, s)

			// The deployment heals once the disk does, and the journal
			// replays to exactly the in-memory state.
			fw.fail = false
			if err := s.Join("bob", "alice"); err != nil {
				t.Fatalf("join after heal: %v", err)
			}
			if err := s.Contribute("alice", 1); err != nil {
				t.Fatal(err)
			}
			events, err := journal.Read(bytes.NewReader(buf.Bytes()))
			if err != nil {
				t.Fatalf("journal unreadable after failures: %v", err)
			}
			st, err := journal.Replay(nil, events)
			if err != nil {
				t.Fatal(err)
			}
			if st.Tree.NumParticipants() != 2 || st.Tree.Total() != 3 {
				t.Fatalf("replayed state: %d participants, total %v, want 2 and 3",
					st.Tree.NumParticipants(), st.Tree.Total())
			}
			if s.LastSeq() != st.LastSeq {
				t.Fatalf("server lastSeq %d != replayed %d", s.LastSeq(), st.LastSeq)
			}
			assertServedMatches(t, s)
		})
	}
}

// TestBatchMaxOneByteIdentity: the same operation sequence driven
// through the write queue at -batch-max=1 must produce a journal
// byte-identical to the direct (unbatched) write path.
func TestBatchMaxOneByteIdentity(t *testing.T) {
	type op struct {
		join    bool
		name    string
		sponsor string
		amount  float64
	}
	script := []op{
		{join: true, name: "ada"},
		{join: true, name: "bob", sponsor: "ada"},
		{name: "ada", amount: 1.5},
		{name: "bob", amount: 0.25},
	}
	for i := 0; i < 20; i++ {
		script = append(script,
			op{join: true, name: fmt.Sprintf("p%03d", i), sponsor: "ada"},
			op{name: fmt.Sprintf("p%03d", i), amount: float64(i) + 0.125},
		)
	}
	run := func(batched bool) []byte {
		m, err := geometric.Default(core.DefaultParams())
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		opts := []Option{WithJournal(journal.NewWriter(&buf, 1))}
		if batched {
			opts = append(opts, WithGroupCommit(1, 0))
		}
		s := New(m, opts...)
		ctx := context.Background()
		for _, o := range script {
			var err error
			switch {
			case o.join && batched:
				_, err = s.SubmitJoin(ctx, o.name, o.sponsor)
			case o.join:
				err = s.Join(o.name, o.sponsor)
			case batched:
				_, err = s.SubmitContribute(ctx, o.name, o.amount)
			default:
				err = s.Contribute(o.name, o.amount)
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		return buf.Bytes()
	}
	direct, batched := run(false), run(true)
	if !bytes.Equal(direct, batched) {
		t.Fatalf("journals differ:\ndirect:\n%s\nbatched:\n%s", direct, batched)
	}
}

// TestBatchedWritesOverHTTP drives group commit end to end:
// concurrent HTTP writes through the write queue, then reads from the
// versioned cache.
func TestBatchedWritesOverHTTP(t *testing.T) {
	s, ts := newBatchedServer(t, 16, 0)
	if err := s.Join("seed", ""); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 20; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			name := fmt.Sprintf("user%d", i)
			if resp := postJSON(t, ts.URL+"/v1/join", map[string]string{"name": name, "sponsor": "seed"}); resp.StatusCode != http.StatusCreated {
				t.Errorf("join %s status = %d", name, resp.StatusCode)
				return
			}
			if resp := postJSON(t, ts.URL+"/v1/contribute", map[string]any{"name": name, "amount": 1.0}); resp.StatusCode != http.StatusOK {
				t.Errorf("contribute %s status = %d", name, resp.StatusCode)
			}
		}(i)
	}
	wg.Wait()
	var resp rewardsResponse
	getJSON(t, ts.URL+"/v1/rewards", &resp)
	if len(resp.Participants) != 21 || resp.Total != 20 {
		t.Fatalf("participants = %d total = %v, want 21 and 20", len(resp.Participants), resp.Total)
	}
	// Validation errors stay per-op under batching.
	if resp := postJSON(t, ts.URL+"/v1/join", map[string]string{"name": "seed"}); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("duplicate join status = %d", resp.StatusCode)
	}
}

func TestLeaderboardEndpoint(t *testing.T) {
	s, ts := newTestServer(t)
	for _, name := range []string{"alice", "bob", "cora"} {
		sponsor := ""
		if name != "alice" {
			sponsor = "alice"
		}
		if err := s.Join(name, sponsor); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Contribute("bob", 5); err != nil {
		t.Fatal(err)
	}
	if err := s.Contribute("cora", 2); err != nil {
		t.Fatal(err)
	}

	var resp leaderboardResponse
	getJSON(t, ts.URL+"/v1/leaderboard", &resp)
	if resp.K != 3 || resp.Participants != 3 || len(resp.Leaders) != 3 {
		t.Fatalf("default leaderboard = %+v (k should clamp to population)", resp)
	}
	for i := 1; i < len(resp.Leaders); i++ {
		if resp.Leaders[i].Reward > resp.Leaders[i-1].Reward {
			t.Fatalf("leaders not sorted by reward: %+v", resp.Leaders)
		}
	}

	var top1 leaderboardResponse
	getJSON(t, ts.URL+"/v1/leaderboard?k=1", &top1)
	if top1.K != 1 || len(top1.Leaders) != 1 {
		t.Fatalf("k=1 leaderboard = %+v", top1)
	}
	if top1.Leaders[0].Name != resp.Leaders[0].Name {
		t.Fatalf("k=1 top = %s, want %s", top1.Leaders[0].Name, resp.Leaders[0].Name)
	}

	for _, q := range []string{"0", "-3", "abc", "1.5"} {
		r := getJSON(t, ts.URL+"/v1/leaderboard?k="+q, nil)
		if r.StatusCode != http.StatusBadRequest {
			t.Fatalf("k=%s status = %d, want 400", q, r.StatusCode)
		}
	}
}

// TestWriteOpErrorMapping checks the write path's error-to-HTTP
// contract: admission-control sheds are 429 with a Retry-After hint
// and a JSON body; abandonment and journal failures are 503;
// everything else is the op's own 400.
func TestWriteOpErrorMapping(t *testing.T) {
	cases := []struct {
		err        error
		status     int
		retryAfter string
	}{
		{ErrQueueFull, http.StatusTooManyRequests, "1"},
		{context.Canceled, http.StatusServiceUnavailable, ""},
		{context.DeadlineExceeded, http.StatusServiceUnavailable, ""},
		{fmt.Errorf("%w: %w", errJournalAppend, errors.New("sync: input/output error")), http.StatusServiceUnavailable, ""},
		{errors.New("amount must be positive"), http.StatusBadRequest, ""},
	}
	for _, tc := range cases {
		rec := httptest.NewRecorder()
		writeOpError(rec, tc.err)
		if rec.Code != tc.status {
			t.Errorf("%v: status = %d, want %d", tc.err, rec.Code, tc.status)
		}
		if got := rec.Header().Get("Retry-After"); got != tc.retryAfter {
			t.Errorf("%v: Retry-After = %q, want %q", tc.err, got, tc.retryAfter)
		}
		if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
			t.Errorf("%v: Content-Type = %q", tc.err, ct)
		}
		if !strings.Contains(rec.Body.String(), `"error"`) {
			t.Errorf("%v: body %q lacks JSON error field", tc.err, rec.Body.String())
		}
	}
}

// TestJournalFailureAnswers503 checks that the journaled writes outside
// the batch path answer a failed journal append the way the batch path
// does — 503, not 500 — and leave the state as it was: the snapshot,
// and the ledger sums the snapshot omits, which /v1/epochs and
// /v1/claims serve.
func TestJournalFailureAnswers503(t *testing.T) {
	var buf bytes.Buffer
	fw := &failWriter{w: &buf}
	s := New(suiteMechanism(t, "geometric"), WithJournal(journal.NewWriter(fw, 1)))
	for _, step := range [][2]string{{"ada", ""}, {"bo", "ada"}} {
		if err := s.Join(step[0], step[1]); err != nil {
			t.Fatal(err)
		}
		if err := s.Contribute(step[0], 2); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.Settle(); err != nil {
		t.Fatal(err)
	}
	if err := s.Quarantine("bo"); err != nil {
		t.Fatal(err)
	}
	// Growth since epoch 1, so a settle has work to journal.
	if err := s.Contribute("ada", 1); err != nil {
		t.Fatal(err)
	}
	h := s.Handler()
	state := func() []byte {
		data, err := json.Marshal(s.SnapshotState())
		if err != nil {
			t.Fatal(err)
		}
		for _, path := range []string{"/v1/epochs", "/v1/claims", "/v1/claims?name=ada"} {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
			data = append(append(data, '\n'), rec.Body.Bytes()...)
		}
		return data
	}
	fw.fail = true
	for _, tc := range []struct{ name, method, path, body string }{
		{"quarantine", "POST", "/v1/audit/quarantine", `{"name":"ada"}`},
		{"unquarantine", "DELETE", "/v1/audit/quarantine/bo", ""},
		{"settle", "POST", "/v1/epochs/settle", ""},
		{"claim", "POST", "/v1/claims", `{"name":"ada","epoch":1}`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			before := state()
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(tc.method, tc.path, strings.NewReader(tc.body)))
			if rec.Code != http.StatusServiceUnavailable {
				t.Fatalf("%s %s = %d %s, want 503", tc.method, tc.path, rec.Code, rec.Body)
			}
			if after := state(); !bytes.Equal(before, after) {
				t.Fatalf("state changed by the failed write:\n before %s\n after  %s", before, after)
			}
		})
	}
}

// TestRewardsCacheVersioning: repeated reads between writes hit the
// versioned cache; any committed write invalidates it exactly once.
func TestRewardsCacheVersioning(t *testing.T) {
	m, err := geometric.Default(core.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	s := New(m, WithMetricsLabels(reg))
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	if err := s.Join("alice", ""); err != nil {
		t.Fatal(err)
	}

	hits := reg.Counter("itree_rewards_cache_hits_total", "")
	misses := reg.Counter("itree_rewards_cache_misses_total", "")

	getJSON(t, ts.URL+"/v1/rewards", nil)
	getJSON(t, ts.URL+"/v1/rewards", nil)
	getJSON(t, ts.URL+"/v1/leaderboard", nil) // same view, same cache
	if h, m := hits.Value(), misses.Value(); h != 2 || m != 1 {
		t.Fatalf("after reads: hits=%d misses=%d, want 2/1", h, m)
	}

	if err := s.Contribute("alice", 1); err != nil {
		t.Fatal(err)
	}
	var resp rewardsResponse
	getJSON(t, ts.URL+"/v1/rewards", &resp)
	if resp.Total != 1 {
		t.Fatalf("post-write total = %v, want 1 (stale cache served?)", resp.Total)
	}
	if h, m := hits.Value(), misses.Value(); h != 2 || m != 2 {
		t.Fatalf("after write: hits=%d misses=%d, want 2/2", h, m)
	}

	// A state restore must also invalidate, even though lastSeq moves
	// backwards.
	snap := s.SnapshotState()
	if err := s.Contribute("alice", 5); err != nil {
		t.Fatal(err)
	}
	if err := s.RestoreState(snap); err != nil {
		t.Fatal(err)
	}
	getJSON(t, ts.URL+"/v1/rewards", &resp)
	if resp.Total != 1 {
		t.Fatalf("post-restore total = %v, want 1", resp.Total)
	}
}

// TestShedUnderBackpressure deterministically wedges the drainer
// behind a held read lock, fills the depth-1 queue, and checks the
// next HTTP write sheds with 429.
func TestShedUnderBackpressure(t *testing.T) {
	s, ts := newBatchedServer(t, 1, 1)
	if err := s.Join("alice", ""); err != nil {
		t.Fatal(err)
	}

	held := make(chan struct{})
	release := make(chan struct{})
	snapDone := make(chan struct{})
	go func() {
		s.SnapshotAt(func() {
			close(held)
			<-release
		})
		close(snapDone)
	}()
	<-held

	// Two submits: once the queue reads 1 with both still pending, one
	// op is necessarily in flight (blocked on the held lock) and the
	// other fills the queue — steady state until release.
	resc := make(chan error, 8)
	submit := func() {
		go func() {
			_, err := s.SubmitContribute(context.Background(), "alice", 1)
			resc <- err
		}()
	}
	pending := 2
	submit()
	submit()
	deadline := time.Now().Add(10 * time.Second)
	for {
		if s.IngestQueueLen() == 1 && pending == 2 {
			break
		}
		select {
		case err := <-resc:
			// Nothing can commit while the lock is held, so an early
			// result can only be a shed from racing the first dequeue.
			if !errors.Is(err, ErrQueueFull) {
				t.Fatalf("unexpected early result: %v", err)
			}
			pending--
			submit()
			pending++
		default:
		}
		if time.Now().After(deadline) {
			t.Fatalf("queue never wedged: queue=%d", s.IngestQueueLen())
		}
		time.Sleep(time.Millisecond)
	}

	resp := postJSON(t, ts.URL+"/v1/contribute", map[string]any{"name": "alice", "amount": 1.0})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429", resp.StatusCode)
	}
	if got := resp.Header.Get("Retry-After"); got != "1" {
		t.Fatalf("Retry-After = %q, want \"1\"", got)
	}
	var body errorResponse
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil || body.Error == "" {
		t.Fatalf("429 body not a JSON error: %v %+v", err, body)
	}

	close(release)
	<-snapDone
	for i := 0; i < pending; i++ {
		if err := <-resc; err != nil {
			t.Fatalf("wedged op failed after release: %v", err)
		}
	}
}
