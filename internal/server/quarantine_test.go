package server

import (
	"bytes"
	"errors"
	"net/http"
	"net/http/httptest"
	"testing"

	"incentivetree/internal/core"
	"incentivetree/internal/geometric"
	"incentivetree/internal/journal"
)

// buildQuarantineFixture populates s with a sponsor chain a<-b<-c plus
// an independent d, all with contributions.
func buildQuarantineFixture(t *testing.T, s *Server) {
	t.Helper()
	for _, j := range []struct{ name, sponsor string }{
		{"a", ""}, {"b", "a"}, {"c", "b"}, {"d", ""},
	} {
		if err := s.Join(j.name, j.sponsor); err != nil {
			t.Fatal(err)
		}
	}
	for _, c := range []struct {
		name   string
		amount float64
	}{
		{"a", 4}, {"b", 3}, {"c", 2}, {"d", 5},
	} {
		if err := s.Contribute(c.name, c.amount); err != nil {
			t.Fatal(err)
		}
	}
}

func TestQuarantineZeroesSubtreePayout(t *testing.T) {
	s, ts := newTestServer(t)
	buildQuarantineFixture(t, s)

	var before rewardsResponse
	getJSON(t, ts.URL+"/v1/rewards", &before)

	if err := s.Quarantine("b"); err != nil {
		t.Fatal(err)
	}
	var after rewardsResponse
	getJSON(t, ts.URL+"/v1/rewards", &after)

	byName := func(resp rewardsResponse, name string) Participant {
		for _, p := range resp.Participants {
			if p.Name == name {
				return p
			}
		}
		t.Fatalf("no participant %q", name)
		return Participant{}
	}
	for _, name := range []string{"b", "c"} {
		p := byName(after, name)
		if p.Reward != 0 || !p.Quarantined {
			t.Fatalf("%s after quarantine of b: reward=%v quarantined=%v, want 0/true", name, p.Reward, p.Quarantined)
		}
		if p.Contribution != byName(before, name).Contribution {
			t.Fatalf("%s: quarantine changed the raw contribution", name)
		}
	}
	for _, name := range []string{"a", "d"} {
		p := byName(after, name)
		if p.Quarantined {
			t.Fatalf("%s wrongly masked by quarantine of b", name)
		}
		if p.Reward != byName(before, name).Reward {
			t.Fatalf("%s: reward changed from %v to %v; quarantine must not disturb others", name, byName(before, name).Reward, p.Reward)
		}
	}
	if after.Total != before.Total {
		t.Fatalf("total contribution changed %v -> %v", before.Total, after.Total)
	}
	if after.TotalReward >= before.TotalReward {
		t.Fatalf("served total reward %v not reduced from %v", after.TotalReward, before.TotalReward)
	}

	// Unquarantine restores the exact pre-quarantine table.
	if err := s.Unquarantine("b"); err != nil {
		t.Fatal(err)
	}
	var restored rewardsResponse
	getJSON(t, ts.URL+"/v1/rewards", &restored)
	if restored.TotalReward != before.TotalReward {
		t.Fatalf("total reward after unquarantine = %v, want %v", restored.TotalReward, before.TotalReward)
	}
	for _, p := range restored.Participants {
		if p.Quarantined {
			t.Fatalf("%s still flagged after unquarantine", p.Name)
		}
	}
}

// TestQuarantineInvalidatesRewardCache is the regression test for the
// stale-cache bug class: the versioned cache must rebuild on quarantine
// and unquarantine, never serving a pre-quarantine table.
func TestQuarantineInvalidatesRewardCache(t *testing.T) {
	s, ts := newTestServer(t)
	buildQuarantineFixture(t, s)

	read := func() (rewardsResponse, leaderboardResponse) {
		var rw rewardsResponse
		getJSON(t, ts.URL+"/v1/rewards", &rw)
		var lb leaderboardResponse
		getJSON(t, ts.URL+"/v1/leaderboard?k=10", &lb)
		return rw, lb
	}
	// Prime the cache, then read twice to pin the cached view.
	read()
	before, _ := read()

	if err := s.Quarantine("d"); err != nil {
		t.Fatal(err)
	}
	rw, lb := read()
	for _, p := range rw.Participants {
		if p.Name == "d" && (p.Reward != 0 || !p.Quarantined) {
			t.Fatalf("rewards served stale post-quarantine view: %+v", p)
		}
	}
	for _, p := range lb.Leaders {
		if p.Name == "d" && p.Reward != 0 {
			t.Fatalf("leaderboard served stale post-quarantine view: %+v", p)
		}
	}

	if err := s.Unquarantine("d"); err != nil {
		t.Fatal(err)
	}
	rw, _ = read()
	for i, p := range rw.Participants {
		if p != before.Participants[i] {
			t.Fatalf("stale view after unquarantine: got %+v, want %+v", p, before.Participants[i])
		}
	}
}

func TestQuarantineErrors(t *testing.T) {
	s, _ := newTestServer(t)
	buildQuarantineFixture(t, s)

	if err := s.Quarantine("ghost"); !errors.Is(err, ErrUnknownParticipant) {
		t.Fatalf("quarantine of unknown = %v, want ErrUnknownParticipant", err)
	}
	if err := s.Unquarantine("a"); !errors.Is(err, ErrNotQuarantined) {
		t.Fatalf("unquarantine of unflagged = %v, want ErrNotQuarantined", err)
	}
	if err := s.Quarantine("a"); err != nil {
		t.Fatal(err)
	}
	if err := s.Quarantine("a"); !errors.Is(err, ErrAlreadyQuarantined) {
		t.Fatalf("duplicate quarantine = %v, want ErrAlreadyQuarantined", err)
	}
	if got := s.QuarantinedNames(); len(got) != 1 || got[0] != "a" {
		t.Fatalf("QuarantinedNames = %v, want [a]", got)
	}
}

// TestQuarantineRecoversFromJournal proves the flag is durable: a fresh
// server recovered from the journal serves byte-identical rewards.
func TestQuarantineRecoversFromJournal(t *testing.T) {
	m, err := geometric.Default(core.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	var log bytes.Buffer
	s := New(m, WithJournal(journal.NewWriter(&log, 1)))
	buildQuarantineFixture(t, s)
	if err := s.Quarantine("b"); err != nil {
		t.Fatal(err)
	}
	if err := s.Quarantine("d"); err != nil {
		t.Fatal(err)
	}
	if err := s.Unquarantine("d"); err != nil {
		t.Fatal(err)
	}
	want := httpBody(t, s, "/v1/rewards")

	events, err := journal.Read(bytes.NewReader(log.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	s2 := New(m)
	if err := Recover(s2, nil, events); err != nil {
		t.Fatal(err)
	}
	if got := httpBody(t, s2, "/v1/rewards"); got != want {
		t.Fatalf("recovered rewards differ:\n got %s\nwant %s", got, want)
	}
	if got := s2.QuarantinedNames(); len(got) != 1 || got[0] != "b" {
		t.Fatalf("recovered quarantine set = %v, want [b]", got)
	}
}

// TestQuarantineSnapshotRoundTrip proves flags survive the snapshot
// path (and the snapshot+suffix recovery combination).
func TestQuarantineSnapshotRoundTrip(t *testing.T) {
	m, err := geometric.Default(core.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	var log bytes.Buffer
	s := New(m, WithJournal(journal.NewWriter(&log, 1)))
	buildQuarantineFixture(t, s)
	if err := s.Quarantine("b"); err != nil {
		t.Fatal(err)
	}
	snap := s.SnapshotState()
	if len(snap.Quarantined) != 1 || snap.Quarantined[0] != "b" {
		t.Fatalf("snapshot.Quarantined = %v, want [b]", snap.Quarantined)
	}
	// Binary round trip, as the checkpointer stores it.
	data, err := journal.EncodeSnapshot(&snap)
	if err != nil {
		t.Fatal(err)
	}
	decoded, err := journal.DecodeSnapshot(data)
	if err != nil {
		t.Fatal(err)
	}

	// Events after the snapshot: one more quarantine.
	if err := s.Unquarantine("b"); err != nil {
		t.Fatal(err)
	}
	if err := s.Quarantine("d"); err != nil {
		t.Fatal(err)
	}
	want := httpBody(t, s, "/v1/rewards")

	events, err := journal.Read(bytes.NewReader(log.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	s2 := New(m)
	if err := Recover(s2, decoded, events); err != nil {
		t.Fatal(err)
	}
	if got := httpBody(t, s2, "/v1/rewards"); got != want {
		t.Fatalf("snapshot+suffix recovery differs:\n got %s\nwant %s", got, want)
	}
}

// TestQuarantineReplicates proves a follower applying the primary's
// journal stream reaches the same quarantine-consistent reads.
func TestQuarantineReplicates(t *testing.T) {
	m, err := geometric.Default(core.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	var log bytes.Buffer
	primary := New(m, WithJournal(journal.NewWriter(&log, 1)))
	buildQuarantineFixture(t, primary)
	if err := primary.Quarantine("b"); err != nil {
		t.Fatal(err)
	}

	events, err := journal.Read(bytes.NewReader(log.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	follower := New(m)
	if err := follower.ApplyReplicated(events); err != nil {
		t.Fatal(err)
	}
	if got, want := httpBody(t, follower, "/v1/rewards"), httpBody(t, primary, "/v1/rewards"); got != want {
		t.Fatalf("follower rewards differ:\n got %s\nwant %s", got, want)
	}
	if !follower.IsQuarantined("b") {
		t.Fatal("follower did not apply the quarantine record")
	}
}

// httpBody serves one GET through the real handler and returns the body.
func httpBody(t *testing.T, s *Server, path string) string {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, path, nil)
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("GET %s = %d: %s", path, rec.Code, rec.Body.String())
	}
	return rec.Body.String()
}
