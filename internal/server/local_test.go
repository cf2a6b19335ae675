package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sort"
	"testing"

	"incentivetree/internal/cdrm"
	"incentivetree/internal/core"
	"incentivetree/internal/experiments"
	"incentivetree/internal/journal"
	"incentivetree/internal/numeric"
	"incentivetree/internal/tree"
	"incentivetree/internal/treegen"
)

// suiteMechanism returns the served mechanism with selector key name.
func suiteMechanism(t testing.TB, name string) core.Mechanism {
	t.Helper()
	m, err := experiments.ByName(core.DefaultParams(), name)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// servedWant is what a server must serve for one participant.
type servedWant struct {
	reward      float64
	quarantined bool
}

// servedOracle computes, per participant name, the reward the server
// must serve without reading its aggregates: the mechanism's full
// evaluation of the current tree, zeroed under quarantined subtrees.
func servedOracle(t testing.TB, s *Server) map[string]servedWant {
	t.Helper()
	snap := s.SnapshotState()
	rewards, err := s.Mechanism().Rewards(snap.Tree)
	if err != nil {
		t.Fatal(err)
	}
	ids := make(map[string]tree.NodeID, snap.Tree.NumParticipants())
	for _, u := range snap.Tree.Nodes() {
		ids[snap.Tree.Label(u)] = u
	}
	masked := make(map[tree.NodeID]bool)
	for _, name := range snap.Quarantined {
		snap.Tree.Walk(ids[name], func(v tree.NodeID) bool {
			masked[v] = true
			return true
		})
	}
	want := make(map[string]servedWant, len(ids))
	for name, u := range ids {
		if masked[u] {
			want[name] = servedWant{0, true}
		} else {
			want[name] = servedWant{rewards[u], false}
		}
	}
	return want
}

// checkServed compares one served participant view with the oracle bit
// for bit.
func checkServed(t testing.TB, where string, p Participant, want map[string]servedWant) {
	t.Helper()
	w, ok := want[p.Name]
	if !ok {
		t.Fatalf("%s: served unknown participant %q", where, p.Name)
	}
	if math.Float64bits(p.Reward) != math.Float64bits(w.reward) || p.Quarantined != w.quarantined {
		t.Fatalf("%s: %s served reward %v (quarantined %v), full evaluation %v (quarantined %v)",
			where, p.Name, p.Reward, p.Quarantined, w.reward, w.quarantined)
	}
}

// assertServedMatches requires every participant view, the /v1/rewards
// table and the full leaderboard to equal the masked full evaluation
// bit for bit, the leaderboard listing exactly the oracle's
// participants by reward descending, then name ascending.
func assertServedMatches(t testing.TB, s *Server) {
	t.Helper()
	want := servedOracle(t, s)
	for name := range want {
		p, err := s.participant(name)
		if err != nil {
			t.Fatal(err)
		}
		checkServed(t, "participant view", p, want)
	}
	var table rewardsResponse
	if err := json.Unmarshal(body(t, s, "/v1/rewards"), &table); err != nil {
		t.Fatal(err)
	}
	if len(table.Participants) != len(want) {
		t.Fatalf("/v1/rewards lists %d participants, want %d", len(table.Participants), len(want))
	}
	for _, p := range table.Participants {
		checkServed(t, "/v1/rewards", p, want)
	}
	var lb leaderboardResponse
	if err := json.Unmarshal(body(t, s, fmt.Sprintf("/v1/leaderboard?k=%d", max(len(want), 1))), &lb); err != nil {
		t.Fatal(err)
	}
	if lb.Participants != len(want) || len(lb.Leaders) != len(want) {
		t.Fatalf("/v1/leaderboard lists %d of %d participants, want all %d", len(lb.Leaders), lb.Participants, len(want))
	}
	// len(want) rows in strict order, each served as the oracle has it,
	// are the oracle's participants, each once, in the oracle's order.
	if err := checkLeaderboard(lb); err != nil {
		t.Fatalf("/v1/leaderboard: %v", err)
	}
	for _, p := range lb.Leaders {
		checkServed(t, "/v1/leaderboard", p, want)
	}
}

// body returns the bytes s serves for GET path.
func body(t testing.TB, s *Server, path string) []byte {
	t.Helper()
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("GET %s = %d: %s", path, rec.Code, rec.Body)
	}
	return rec.Body.Bytes()
}

// applyChecked applies events as one batch and checks every commit view
// against the masked full evaluation of the committed state.
func applyChecked(t testing.TB, s *Server, events ...journal.Event) []writeResult {
	t.Helper()
	results := s.applyBatch(events)
	want := servedOracle(t, s)
	for _, r := range results {
		if r.err == nil {
			checkServed(t, "commit view", r.p, want)
		}
	}
	return results
}

// randomWorkload drives s through ops seeded joins (60%) and
// contributions, one batch each, checking every commit view.
func randomWorkload(t testing.TB, s *Server, seed int64, ops int) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	var names []string
	tr := s.SnapshotState().Tree
	for _, u := range tr.Nodes() {
		names = append(names, tr.Label(u))
	}
	for i := 0; i < ops; i++ {
		var op journal.Event
		if len(names) == 0 || rng.Float64() < 0.6 {
			op = journal.Event{Kind: journal.KindJoin, Name: fmt.Sprintf("w%d-%d", seed, i)}
			if len(names) > 0 && rng.Intn(8) != 0 {
				op.Sponsor = names[rng.Intn(len(names))]
			}
			names = append(names, op.Name)
		} else {
			op = journal.Event{Kind: journal.KindContribute, Name: names[rng.Intn(len(names))], Amount: rng.Float64() * 4}
		}
		if r := applyChecked(t, s, op); r[0].err != nil {
			t.Fatalf("op %d: %v", i, r[0].err)
		}
	}
}

func TestGeometricEngineMatchesFullEvaluation(t *testing.T) {
	s := New(suiteMechanism(t, "geometric"))
	randomWorkload(t, s, 1, 300)
	assertServedMatches(t, s)
}

func TestCDRMEngineMatchesFullEvaluation(t *testing.T) {
	s := New(suiteMechanism(t, "cdrm-reciprocal"))
	randomWorkload(t, s, 2, 300)
	assertServedMatches(t, s)
}

func TestGeometricEngineHandComputed(t *testing.T) {
	// a = 1/3, b = (1-a)*Phi = 1/3 (defaults). Chain u -> v with C 1, 3:
	// R(v) = b*3, R(u) = b*(1 + a*3) = b*2.
	s := New(suiteMechanism(t, "geometric"))
	for _, step := range []struct {
		name, sponsor string
		c             float64
	}{{"u", "", 1}, {"v", "u", 3}} {
		if err := s.Join(step.name, step.sponsor); err != nil {
			t.Fatal(err)
		}
		if err := s.Contribute(step.name, step.c); err != nil {
			t.Fatal(err)
		}
	}
	reward := func(name string) float64 {
		p, err := s.participant(name)
		if err != nil {
			t.Fatal(err)
		}
		return p.Reward
	}
	b := 1.0 / 3.0
	if got := reward("v"); !numeric.AlmostEqual(got, b*3, 1e-12) {
		t.Fatalf("R(v) = %v", got)
	}
	if got := reward("u"); !numeric.AlmostEqual(got, b*2, 1e-12) {
		t.Fatalf("R(u) = %v", got)
	}
	// Contribution top-up at v bubbles a*delta to u.
	if err := s.Contribute("v", 3); err != nil {
		t.Fatal(err)
	}
	if got := reward("u"); !numeric.AlmostEqual(got, b*3, 1e-12) {
		t.Fatalf("after top-up R(u) = %v", got)
	}
}

func TestCDRMEngineHandComputed(t *testing.T) {
	m := suiteMechanism(t, "cdrm-reciprocal")
	s := New(m)
	for _, step := range []struct {
		name, sponsor string
		c             float64
	}{{"u", "", 2}, {"v", "u", 1}} {
		if err := s.Join(step.name, step.sponsor); err != nil {
			t.Fatal(err)
		}
		if err := s.Contribute(step.name, step.c); err != nil {
			t.Fatal(err)
		}
	}
	p, err := s.participant("u")
	if err != nil {
		t.Fatal(err)
	}
	if want := m.(*cdrm.Mechanism).Func().Eval(2, 1); !numeric.AlmostEqual(p.Reward, want, 1e-12) {
		t.Fatalf("R(u) = %v, want %v", p.Reward, want)
	}
}

func TestEngineErrorPaths(t *testing.T) {
	for _, name := range []string{"geometric", "cdrm-reciprocal"} {
		s := New(suiteMechanism(t, name))
		if err := s.Join("ada", ""); err != nil {
			t.Fatal(err)
		}
		if err := s.Join("bo", "ghost"); err == nil {
			t.Fatal("join under missing sponsor should fail")
		}
		if err := s.Contribute("ghost", 1); err == nil {
			t.Fatal("contribution by missing participant should fail")
		}
		if err := s.Contribute("ada", -1); err == nil {
			t.Fatal("negative contribution should fail")
		}
		if _, err := s.participant("ghost"); err == nil {
			t.Fatal("missing participant read should fail")
		}
		assertServedMatches(t, s)
	}
}

func TestFailedWriteLeavesStateConsistent(t *testing.T) {
	s := New(suiteMechanism(t, "geometric"))
	applyChecked(t, s, journal.Event{Kind: journal.KindJoin, Name: "u"}, journal.Event{Kind: journal.KindContribute, Name: "u", Amount: 1})
	// A batch whose ops all fail validation commits nothing and must not
	// disturb the aggregates.
	results := applyChecked(t, s,
		journal.Event{Kind: journal.KindContribute, Name: "u", Amount: -5},
		journal.Event{Kind: journal.KindJoin, Name: "u"})
	for i, r := range results {
		if r.err == nil {
			t.Fatalf("op %d should fail", i)
		}
	}
	assertServedMatches(t, s)
}

func TestRewardsSnapshotIsACopy(t *testing.T) {
	s := New(suiteMechanism(t, "geometric"))
	if err := s.Join("u", ""); err != nil {
		t.Fatal(err)
	}
	if err := s.Contribute("u", 1); err != nil {
		t.Fatal(err)
	}
	s.mu.RLock()
	table := s.rewardsLocked()
	s.mu.RUnlock()
	table[1] = 999
	if p, _ := s.participant("u"); p.Reward == 999 {
		t.Fatal("reward table aliases the maintained aggregates")
	}
}

// TestRewardTotalMatchesEvaluation: R(T) as /v1/stats and the
// itree_reward_total gauge read it, summed without building the table,
// equals the total of the mechanism's full evaluation bit for bit.
func TestRewardTotalMatchesEvaluation(t *testing.T) {
	for _, name := range experiments.MechanismNames() {
		t.Run(name, func(t *testing.T) {
			s, _ := mixServer(t, name, treegen.ScenarioConfig{Honest: 300})
			r, err := s.Mechanism().Rewards(s.SnapshotState().Tree)
			if err != nil {
				t.Fatal(err)
			}
			want := math.Float64bits(r.Total())
			if got, _ := s.rewardTotals(); math.Float64bits(got) != want {
				t.Fatalf("rewardTotals = %v, full evaluation sums to %v", got, r.Total())
			}
			var stats statsResponse
			if err := json.Unmarshal(body(t, s, "/v1/stats"), &stats); err != nil {
				t.Fatal(err)
			}
			if math.Float64bits(stats.TotalReward) != want {
				t.Fatalf("/v1/stats total_reward = %v, full evaluation sums to %v", stats.TotalReward, r.Total())
			}
		})
	}
}

// randomSnapshot grows a labelled, contribution-bearing tree the way a
// workload would.
func randomSnapshot(t *testing.T, seed int64, n int) journal.Snapshot {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	tr := tree.New()
	for i := 0; i < n; i++ {
		id, err := tr.Add(tree.NodeID(rng.Intn(tr.Len())), rng.Float64()*4)
		if err != nil {
			t.Fatal(err)
		}
		if err := tr.SetLabel(id, fmt.Sprintf("n%03d", i)); err != nil {
			t.Fatal(err)
		}
	}
	return journal.Snapshot{LastSeq: uint64(2 * n), Tree: tr}
}

// TestForTreeMatchesFullEvaluation is the recovery path: aggregates
// folded from a restored tree must serve exactly the full evaluation,
// and stay exact under further writes. The restore lands on a fresh
// server, and on one that served a leaderboard over a larger
// population: its ranking lists more ids than the restored tree holds.
func TestForTreeMatchesFullEvaluation(t *testing.T) {
	for _, name := range experiments.MechanismNames() {
		t.Run(name, func(t *testing.T) {
			for _, before := range []int{0, 300} {
				s := New(suiteMechanism(t, name))
				if before > 0 {
					if err := s.RestoreState(randomSnapshot(t, 5, before)); err != nil {
						t.Fatal(err)
					}
					body(t, s, "/v1/leaderboard")
				}
				if err := s.RestoreState(randomSnapshot(t, 7, 200)); err != nil {
					t.Fatal(err)
				}
				assertServedMatches(t, s)
				randomWorkload(t, s, 11, 50)
				assertServedMatches(t, s)
			}
		})
	}
}

func TestForTreeEmptyTree(t *testing.T) {
	s := New(suiteMechanism(t, "geometric"))
	if err := s.RestoreState(journal.Snapshot{Tree: tree.New()}); err != nil {
		t.Fatal(err)
	}
	// Rewards are indexed by NodeID, so even an empty tree has the root
	// slot (always zero).
	s.mu.RLock()
	r := s.rewardsLocked()
	s.mu.RUnlock()
	if len(r) != 1 || r[0] != 0 {
		t.Fatalf("empty tree rewards = %v", r)
	}
	applyChecked(t, s, journal.Event{Kind: journal.KindJoin, Name: "ada"}, journal.Event{Kind: journal.KindContribute, Name: "ada", Amount: 1})
	assertServedMatches(t, s)
}

// TestWithIncrementalMatchesFullEvaluation drives a server per served
// mechanism through a random workload with quarantines and checks that
// every commit view, participant view and /v1/rewards entry equals the
// masked full evaluation bit for bit.
func TestWithIncrementalMatchesFullEvaluation(t *testing.T) {
	for i, name := range experiments.MechanismNames() {
		t.Run(name, func(t *testing.T) {
			s := New(suiteMechanism(t, name))
			randomWorkload(t, s, int64(3+i), 80)
			if err := s.Quarantine(fmt.Sprintf("w%d-%d", 3+i, 0)); err != nil {
				t.Fatal(err)
			}
			assertServedMatches(t, s)
			randomWorkload(t, s, int64(30+i), 40)
			assertServedMatches(t, s)
		})
	}
}

// TestWithIncrementalSurvivesRestore checks the aggregates are folded
// from the restored tree, not left describing the old one.
func TestWithIncrementalSurvivesRestore(t *testing.T) {
	s := New(suiteMechanism(t, "geometric"))
	for _, step := range [][2]string{{"ada", ""}, {"bo", "ada"}, {"cy", "bo"}} {
		if err := s.Join(step[0], step[1]); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Contribute("cy", 4); err != nil {
		t.Fatal(err)
	}
	snap := s.SnapshotState()

	s2 := New(suiteMechanism(t, "geometric"))
	if err := s2.Join("zed", ""); err != nil {
		t.Fatal(err)
	}
	if err := s2.RestoreState(snap); err != nil {
		t.Fatal(err)
	}
	assertServedMatches(t, s2)
	// Writes against the restored state stay exact.
	if err := s2.Contribute("ada", 1); err != nil {
		t.Fatal(err)
	}
	assertServedMatches(t, s2)
}

// TestRewardsSortedByName pins the /v1/rewards participant order to the
// name sort: snapshot round-trips renumber NodeIDs in DFS preorder, so
// id order would make reward tables incomparable across recovery.
func TestRewardsSortedByName(t *testing.T) {
	s := New(suiteMechanism(t, "geometric"))
	// Join in an order that differs from the name sort.
	for _, step := range [][2]string{{"zoe", ""}, {"mia", "zoe"}, {"ada", "zoe"}, {"bo", "mia"}} {
		if err := s.Join(step[0], step[1]); err != nil {
			t.Fatal(err)
		}
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/v1/rewards")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body rewardsResponse
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if len(body.Participants) != 4 {
		t.Fatalf("%d participants", len(body.Participants))
	}
	if !sort.SliceIsSorted(body.Participants, func(i, j int) bool {
		return body.Participants[i].Name < body.Participants[j].Name
	}) {
		t.Fatalf("participants not sorted by name: %+v", body.Participants)
	}
}

// TestApplyReplicatedMatchesFullEvaluation is the follower path: a
// server fed a primary's journal through ApplyReplicated, in batches,
// serves the masked full evaluation bit for bit after every batch, and
// ends up serving the primary's bytes.
func TestApplyReplicatedMatchesFullEvaluation(t *testing.T) {
	for i, name := range experiments.MechanismNames() {
		t.Run(name, func(t *testing.T) {
			var log bytes.Buffer
			primary := New(suiteMechanism(t, name), WithJournal(journal.NewWriter(&log, 1)))
			randomWorkload(t, primary, int64(50+i), 60)
			if err := primary.Quarantine(fmt.Sprintf("w%d-%d", 50+i, 0)); err != nil {
				t.Fatal(err)
			}
			randomWorkload(t, primary, int64(70+i), 30)
			events, err := journal.Read(bytes.NewReader(log.Bytes()))
			if err != nil {
				t.Fatal(err)
			}
			follower := New(suiteMechanism(t, name))
			for lo := 0; lo < len(events); lo += 7 {
				if err := follower.ApplyReplicated(events[lo:min(lo+7, len(events))]); err != nil {
					t.Fatal(err)
				}
				assertServedMatches(t, follower)
			}
			for _, path := range []string{"/v1/rewards", "/v1/leaderboard?k=20"} {
				if got, want := body(t, follower, path), body(t, primary, path); !bytes.Equal(got, want) {
					t.Fatalf("follower %s differs from the primary's", path)
				}
			}
		})
	}
}

// TestTDRMHugeContributionRecovers commits contributions whose RCT
// chains are longer than an int can count: the commit and a recovery
// from the journal must both fold them, and serve the same audited
// rewards.
func TestTDRMHugeContributionRecovers(t *testing.T) {
	var log bytes.Buffer
	s := New(suiteMechanism(t, "tdrm"), WithJournal(journal.NewWriter(&log, 1)))
	applyChecked(t, s,
		journal.Event{Kind: journal.KindJoin, Name: "ada"},
		journal.Event{Kind: journal.KindJoin, Name: "bo", Sponsor: "ada"},
		journal.Event{Kind: journal.KindJoin, Name: "cy", Sponsor: "bo"},
		journal.Event{Kind: journal.KindContribute, Name: "ada", Amount: 1})
	for _, op := range []journal.Event{
		{Kind: journal.KindContribute, Name: "bo", Amount: 1e19},
		{Kind: journal.KindContribute, Name: "cy", Amount: 1e300},
	} {
		for _, r := range applyChecked(t, s, op) {
			if r.err != nil {
				t.Fatal(r.err)
			}
		}
	}
	assertServedMatches(t, s)
	snap := s.SnapshotState()
	rewards, err := s.Mechanism().Rewards(snap.Tree)
	if err != nil {
		t.Fatal(err)
	}
	if err := core.Audit(s.Mechanism(), snap.Tree, rewards); err != nil {
		t.Fatal(err)
	}

	events, err := journal.Read(bytes.NewReader(log.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	recovered := New(suiteMechanism(t, "tdrm"))
	if err := Recover(recovered, nil, events); err != nil {
		t.Fatal(err)
	}
	assertServedMatches(t, recovered)
	if got, want := body(t, recovered, "/v1/rewards"), body(t, s, "/v1/rewards"); !bytes.Equal(got, want) {
		t.Fatalf("recovered /v1/rewards differs:\n%s\nwant\n%s", got, want)
	}
}
