package server

import (
	"bytes"
	"cmp"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

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
func BenchmarkReadViews(b *testing.B) {
	type population struct {
		s     *Server
		names []string
	}
	built := make(map[string]population)
	for _, bc := range []struct {
		name, mechanism, path string
		write                 bool
	}{
		{"leaderboard-miss", "tdrm", "/v1/leaderboard?k=10", true},
		{"leaderboard-hit", "tdrm", "/v1/leaderboard?k=10", false},
		{"rewards-after-write", "tdrm", "/v1/rewards", true},
		{"rewards-repeat", "tdrm", "/v1/rewards", false},
		{"leaderboard-miss-l-pachira", "l-pachira", "/v1/leaderboard?k=10", true},
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
				if bc.write {
					b.StopTimer()
					if err := s.Contribute(p.names[rng.Intn(len(p.names))], 0.5+4*rng.Float64()); err != nil {
						b.Fatal(err)
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
