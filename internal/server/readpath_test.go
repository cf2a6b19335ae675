package server

import (
	"bytes"
	"cmp"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"slices"
	"sync"
	"testing"
	"time"

	"incentivetree/internal/core"
	"incentivetree/internal/experiments"
	"incentivetree/internal/journal"
	"incentivetree/internal/obs"
	"incentivetree/internal/treegen"
)

// mixServer applies the seeded treegen.Mix population cfg describes to
// a fresh server under the named mechanism.
func mixServer(tb testing.TB, mechanism string, cfg treegen.ScenarioConfig, opts ...Option) (*Server, treegen.Scenario) {
	tb.Helper()
	m, err := experiments.ByName(core.DefaultParams(), mechanism)
	if err != nil {
		tb.Fatal(err)
	}
	s := New(m, opts...)
	sc := treegen.Mix(rand.New(rand.NewSource(1)), cfg)
	for _, op := range sc.Ops() {
		if op.Kind == treegen.OpJoin {
			err = s.Join(op.Name, op.Sponsor)
		} else {
			err = s.Contribute(op.Name, op.Amount)
		}
		if err != nil {
			tb.Fatal(err)
		}
	}
	return s, sc
}

// BenchmarkReadViews times the two table reads, JSON encoding included,
// over leaderboard-churn's population (treegen.Mix with 10^4 honest
// participants, ~1.2·10^4 in all), under TDRM unless a case names
// another mechanism. The first read after a write builds its view, a
// repeat read reuses it. Each write is one contribute to a seeded
// honest participant, committed outside the timer: under TDRM it moves
// ~5 ids' rewards, under L-Pachira, whose rewards read C(T), most ids'.
// An after-N-writes case commits N contributes as one batch before each
// read: 64 move ~220 ids, 512 ~1,200 (re-placed one by one) and 2048
// ~3,300 (past an eighth of the participants, so re-sorted in full).
// The stats case sums R(T) per read.
func BenchmarkReadViews(b *testing.B) {
	type population struct {
		s     *Server
		names []string
	}
	built := make(map[string]population)
	for _, bc := range []struct {
		name, mechanism, path string
		writes                int
	}{
		{"leaderboard-miss", "tdrm", "/v1/leaderboard?k=10", 1},
		{"leaderboard-hit", "tdrm", "/v1/leaderboard?k=10", 0},
		{"rewards-after-write", "tdrm", "/v1/rewards", 1},
		{"rewards-repeat", "tdrm", "/v1/rewards", 0},
		{"leaderboard-miss-l-pachira", "l-pachira", "/v1/leaderboard?k=10", 1},
		{"leaderboard-miss-after-64-writes", "tdrm", "/v1/leaderboard?k=10", 64},
		{"leaderboard-miss-after-512-writes", "tdrm", "/v1/leaderboard?k=10", 512},
		{"leaderboard-miss-after-2048-writes", "tdrm", "/v1/leaderboard?k=10", 2048},
		{"stats", "tdrm", "/v1/stats", 0},
	} {
		b.Run(bc.name, func(b *testing.B) {
			p, ok := built[bc.mechanism]
			if !ok {
				s, sc := mixServer(b, bc.mechanism, treegen.ScenarioConfig{Honest: 10000})
				p = population{s, sc.Honest}
				built[bc.mechanism] = p
			}
			s, h := p.s, p.s.Handler()
			rng := rand.New(rand.NewSource(1))
			get(h, bc.path)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if bc.writes > 0 {
					b.StopTimer()
					events := make([]journal.Event, bc.writes)
					for j := range events {
						events[j] = journal.Event{Kind: journal.KindContribute, Name: p.names[rng.Intn(len(p.names))], Amount: 0.5 + 4*rng.Float64()}
					}
					for _, r := range s.applyBatch(events) {
						if r.err != nil {
							b.Fatal(r.err)
						}
					}
					b.StartTimer()
				}
				if code, body := get(h, bc.path); code != http.StatusOK {
					b.Fatalf("GET %s = %d: %s", bc.path, code, body)
				}
			}
		})
	}
}

// BenchmarkWriteBesideRewards times one contribute while another
// goroutine reads /v1/rewards in a loop, over BenchmarkReadViews' TDRM
// population: the commit waits for the read lock that each read holds
// while it builds its rows. The writes are 1 ms apart, outside the
// timer, so each lands at a random point of the reader's loop instead
// of right after the previous write.
func BenchmarkWriteBesideRewards(b *testing.B) {
	s, sc := mixServer(b, "tdrm", treegen.ScenarioConfig{Honest: 10000})
	h := s.Handler()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				get(h, "/v1/rewards")
			}
		}
	}()
	defer func() {
		b.StopTimer()
		close(stop)
		wg.Wait()
	}()
	rng := rand.New(rand.NewSource(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		time.Sleep(time.Millisecond)
		b.StartTimer()
		if err := s.Contribute(sc.Honest[rng.Intn(len(sc.Honest))], 0.5+4*rng.Float64()); err != nil {
			b.Fatal(err)
		}
	}
}

// TestReadViewsAcrossCommits reads only after zero to four batches, so
// one view build spans several commits: joins below a quarantined
// ancestor, more re-folded ids than an eighth of the participants, and
// restores to a smaller and to a larger tree. Every read, the full
// leaderboard included, must match the masked full evaluation. The
// 1,000 participants the stream starts from keep most builds on the
// path that re-places only the moved ids.
func TestReadViewsAcrossCommits(t *testing.T) {
	for i, name := range experiments.MechanismNames() {
		t.Run(name, func(t *testing.T) {
			s := New(suiteMechanism(t, name))
			rng := rand.New(rand.NewSource(int64(i)))
			// below lists the quarantined subtree while joins go there.
			var names, below []string
			join := func() journal.Event {
				e := journal.Event{Kind: journal.KindJoin, Name: fmt.Sprintf("p%d", len(names))}
				sponsors := names
				if below != nil {
					sponsors = below
					below = append(below, e.Name)
				}
				if len(sponsors) > 0 {
					e.Sponsor = sponsors[rng.Intn(len(sponsors))]
				}
				names = append(names, e.Name)
				return e
			}
			apply := func(ops []journal.Event) {
				for _, r := range s.applyBatch(ops) {
					if r.err != nil {
						t.Fatal(r.err)
					}
				}
			}
			commit := func(batches int) {
				for range batches {
					ops := make([]journal.Event, 1+rng.Intn(8))
					for j := range ops {
						if rng.Intn(3) > 0 {
							ops[j] = journal.Event{Kind: journal.KindContribute, Name: names[rng.Intn(len(names))], Amount: 0.5 + 4*rng.Float64()}
						} else {
							ops[j] = join()
						}
					}
					apply(ops)
				}
			}
			replaced := 0
			read := func() {
				if v := s.view.Load(); v != nil && v.version != s.version && !s.rerank && !s.local.UsesTotal() {
					replaced++
				}
				assertServedMatches(t, s)
			}
			base := make([]journal.Event, 1000)
			for j := range base {
				base[j] = join()
			}
			apply(base)
			for range 10 {
				read()
				commit(rng.Intn(5))
			}

			q := names[rng.Intn(len(names))]
			if err := s.Quarantine(q); err != nil {
				t.Fatal(err)
			}
			read()
			below = []string{q}
			for range 4 {
				commit(1 + rng.Intn(4))
				read()
			}
			below = nil
			if err := s.Unquarantine(q); err != nil {
				t.Fatal(err)
			}
			commit(2)
			read()

			small, smallNames := s.SnapshotState(), slices.Clone(names)
			overflow := make([]journal.Event, len(names)/2)
			for j := range overflow {
				overflow[j] = journal.Event{Kind: journal.KindContribute, Name: names[rng.Intn(len(names))], Amount: 1}
			}
			apply(overflow)
			if !s.rerank {
				t.Fatalf("%d re-folded ids over %d participants did not force a full re-rank", len(s.moved), len(names))
			}
			read()

			big, bigNames := s.SnapshotState(), names
			if err := s.RestoreState(small); err != nil {
				t.Fatal(err)
			}
			names = smallNames
			commit(rng.Intn(3))
			read()
			if err := s.RestoreState(big); err != nil {
				t.Fatal(err)
			}
			names = bigNames
			read()
			commit(1 + rng.Intn(4))
			read()
			if want := 8; !s.local.UsesTotal() && replaced < want {
				t.Fatalf("%d reads re-placed only the moved ids, want at least %d", replaced, want)
			}
		})
	}
}

// get serves GET path on h; safe to call from any goroutine.
func get(h http.Handler, path string) (int, []byte) {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
	return rec.Code, rec.Body.Bytes()
}

// TestConcurrentMissesCollapse: leaderboard readers racing on a cold
// version build its view once, and all serve the same bytes.
func TestConcurrentMissesCollapse(t *testing.T) {
	reg := obs.NewRegistry()
	s, _ := mixServer(t, "tdrm", treegen.ScenarioConfig{Honest: 3000}, WithMetricsLabels(reg))
	h := s.Handler()
	const readers = 32
	bodies := make([][]byte, readers)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := range bodies {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			code, b := get(h, "/v1/leaderboard?k=50")
			if code != http.StatusOK {
				t.Errorf("leaderboard = %d: %s", code, b)
			}
			bodies[i] = b
		}()
	}
	close(start)
	wg.Wait()
	hits := reg.Counter("itree_rewards_cache_hits_total", "").Value()
	misses := reg.Counter("itree_rewards_cache_misses_total", "").Value()
	if misses != 1 || hits != readers-1 {
		t.Fatalf("hits=%d misses=%d, want %d/1", hits, misses, readers-1)
	}
	for i, b := range bodies {
		if !bytes.Equal(b, bodies[0]) {
			t.Fatalf("reader %d served\n%s\nreader 0 served\n%s", i, b, bodies[0])
		}
	}
}

// checkLeaderboard requires leaders ranked by reward descending, then
// name ascending.
func checkLeaderboard(lb leaderboardResponse) error {
	if len(lb.Leaders) != lb.K || lb.K > lb.Participants {
		return fmt.Errorf("k=%d with %d leaders of %d participants", lb.K, len(lb.Leaders), lb.Participants)
	}
	for i := 1; i < len(lb.Leaders); i++ {
		a, b := lb.Leaders[i-1], lb.Leaders[i]
		if c := cmp.Compare(b.Reward, a.Reward); c > 0 || c == 0 && a.Name >= b.Name {
			return fmt.Errorf("leader %d (%s, %v) ranked after %d (%s, %v)", i, b.Name, b.Reward, i-1, a.Name, a.Reward)
		}
	}
	return nil
}

// checkRewards requires the table in strictly ascending name order,
// masked rows reading zero.
func checkRewards(table rewardsResponse) error {
	for i, p := range table.Participants {
		if i > 0 && table.Participants[i-1].Name >= p.Name {
			return fmt.Errorf("row %d (%s) after %s", i, p.Name, table.Participants[i-1].Name)
		}
		if p.Quarantined && p.Reward != 0 {
			return fmt.Errorf("quarantined %s served reward %v", p.Name, p.Reward)
		}
	}
	return nil
}

// TestReadViewsUnderWrites runs leaderboard and /v1/rewards readers
// beside a batched writer that joins, contributes and flips a
// quarantine. Every body must be ordered as served, and the last ones
// must equal those of a server recovered from the journal.
func TestReadViewsUnderWrites(t *testing.T) {
	var log bytes.Buffer
	s, sc := mixServer(t, "tdrm", treegen.ScenarioConfig{Honest: 300}, WithJournal(journal.NewWriter(&log, 1)))
	h := s.Handler()
	done := make(chan struct{})
	var wg sync.WaitGroup
	// Each reader makes at least a few reads, however fast the writer.
	read := func(path string, check func([]byte) error) {
		defer wg.Done()
		for n := 0; ; n++ {
			select {
			case <-done:
				if n >= 5 {
					return
				}
			default:
			}
			code, b := get(h, path)
			if code != http.StatusOK {
				t.Errorf("GET %s = %d: %s", path, code, b)
				return
			}
			if err := check(b); err != nil {
				t.Errorf("GET %s: %v", path, err)
				return
			}
		}
	}
	wg.Add(2)
	go read("/v1/leaderboard?k=40", func(b []byte) error {
		var lb leaderboardResponse
		if err := json.Unmarshal(b, &lb); err != nil {
			return err
		}
		return checkLeaderboard(lb)
	})
	go read("/v1/rewards", func(b []byte) error {
		var table rewardsResponse
		if err := json.Unmarshal(b, &table); err != nil {
			return err
		}
		return checkRewards(table)
	})

	rng := rand.New(rand.NewSource(2))
	names := append([]string(nil), sc.Honest...)
	for batch := 0; batch < 60; batch++ {
		switch batch {
		case 20:
			if err := s.Quarantine(sc.Honest[1]); err != nil {
				t.Fatal(err)
			}
		case 40:
			if err := s.Unquarantine(sc.Honest[1]); err != nil {
				t.Fatal(err)
			}
		}
		ops := make([]journal.Event, 8)
		for i := range ops {
			if rng.Intn(4) == 0 {
				name := fmt.Sprintf("late-%d-%d", batch, i)
				ops[i] = journal.Event{Kind: journal.KindJoin, Name: name, Sponsor: names[rng.Intn(len(names))]}
				names = append(names, name)
			} else {
				ops[i] = journal.Event{Kind: journal.KindContribute, Name: names[rng.Intn(len(names))], Amount: 0.5 + 4*rng.Float64()}
			}
		}
		for _, r := range s.applyBatch(ops) {
			if r.err != nil {
				t.Fatal(r.err)
			}
		}
	}
	if err := s.Quarantine(sc.Honest[2]); err != nil {
		t.Fatal(err)
	}
	close(done)
	wg.Wait()

	events, err := journal.Read(bytes.NewReader(log.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	recovered := New(suiteMechanism(t, "tdrm"))
	if err := Recover(recovered, nil, events); err != nil {
		t.Fatal(err)
	}
	const all = "/v1/leaderboard?k=100000"
	for _, path := range []string{"/v1/rewards", all} {
		if got, want := body(t, s, path), body(t, recovered, path); !bytes.Equal(got, want) {
			t.Fatalf("GET %s differs from a recovered server:\n%s\nwant\n%s", path, got, want)
		}
	}
	var lb leaderboardResponse
	if err := json.Unmarshal(body(t, s, all), &lb); err != nil {
		t.Fatal(err)
	}
	if err := checkLeaderboard(lb); err != nil {
		t.Fatal(err)
	}
}
