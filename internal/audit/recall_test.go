package audit_test

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"

	"incentivetree/internal/audit"
	"incentivetree/internal/core"
	"incentivetree/internal/geometric"
	"incentivetree/internal/server"
	"incentivetree/internal/treegen"
)

// applyScenario streams a generated scenario into a live server.
func applyScenario(t testing.TB, s *server.Server, sc treegen.Scenario) {
	t.Helper()
	for _, op := range sc.Ops() {
		var err error
		switch op.Kind {
		case treegen.OpJoin:
			err = s.Join(op.Name, op.Sponsor)
		case treegen.OpContribute:
			err = s.Contribute(op.Name, op.Amount)
		}
		if err != nil {
			t.Fatalf("applying %+v: %v", op, err)
		}
	}
}

func newAuditedServer(t testing.TB, cfg audit.Config) (*server.Server, *audit.Auditor) {
	t.Helper()
	m, err := geometric.Default(core.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	s := server.New(m)
	return s, audit.New(cfg, s)
}

// matches reports whether a finding identifies the injection: the
// member sets overlap (star roots are honest sponsors, so root-only
// matching would miss them).
func matches(f audit.Finding, inj treegen.Injection) bool {
	planted := make(map[string]bool, len(inj.Members))
	for _, m := range inj.Members {
		planted[m] = true
	}
	if planted[f.Root] {
		return true
	}
	for _, m := range f.Members {
		if planted[m] {
			return true
		}
	}
	return false
}

// TestAdversarialRecall is the headline regression: on a mixed
// adversarial scenario with known ground truth, the auditor must flag
// at least 90% of the injected arrangements, never flag an honest
// participant, and auto-quarantine only planted identities.
func TestAdversarialRecall(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		sc := treegen.Mix(rand.New(rand.NewSource(seed)), treegen.ScenarioConfig{
			Honest:        64,
			EpsilonChains: 3,
			Chains:        3,
			Stars:         3,
		})
		s, a := newAuditedServer(t, audit.Config{AutoQuarantine: true})
		applyScenario(t, s, sc)

		// Two scans: hysteresis needs a confirming pass before flagging.
		a.Scan()
		a.Scan()
		rep := a.Report()

		matched := 0
		for _, inj := range sc.Injected {
			found := false
			for _, f := range rep.Findings {
				if f.Flagged && matches(f, inj) {
					found = true
					break
				}
			}
			if found {
				matched++
			} else {
				t.Logf("seed %d: missed %s at %q (members %v)", seed, inj.Shape, inj.Root, inj.Members)
			}
		}
		recall := float64(matched) / float64(len(sc.Injected))
		if recall < 0.9 {
			t.Errorf("seed %d: recall = %d/%d = %.2f, want >= 0.9", seed, matched, len(sc.Injected), recall)
		}

		// Precision: no flagged finding may implicate honest members, and
		// every flagged chain root must itself be planted.
		syb := sc.SybilNames()
		for _, f := range rep.Findings {
			if !f.Flagged {
				continue
			}
			for _, m := range f.Members {
				if !syb[m] {
					t.Errorf("seed %d: flagged finding at %q implicates honest %q", seed, f.Root, m)
				}
			}
			if f.Shape != audit.ShapeStar && !syb[f.Root] {
				t.Errorf("seed %d: flagged %s anchored at honest %q", seed, f.Shape, f.Root)
			}
		}

		// Auto-quarantine touches planted identities only.
		for _, name := range s.QuarantinedNames() {
			if !strings.HasPrefix(name, "syb-") {
				t.Errorf("seed %d: quarantined honest participant %q", seed, name)
			}
		}
		if s.QuarantineCount() == 0 {
			t.Errorf("seed %d: no injection crossed the auto-quarantine gate", seed)
		}
	}
}

// TestHonestOnlyNoQuarantines: organic traffic — preferential
// attachment, cascades, churn — must never be quarantined, and must
// never match the equal-split signatures (continuous contribution
// amounts make exact equality measure-zero). Irregular deep chains DO
// grow organically, so advisory chain flags are permitted — that is
// exactly why plain chains never cross the auto-quarantine gate.
func TestHonestOnlyNoQuarantines(t *testing.T) {
	for _, seed := range []int64{1, 2, 3, 4, 5} {
		sc := treegen.Mix(rand.New(rand.NewSource(seed)), treegen.ScenarioConfig{Honest: 96})
		s, a := newAuditedServer(t, audit.Config{AutoQuarantine: true})
		applyScenario(t, s, sc)
		for i := 0; i < 3; i++ {
			a.Scan()
		}
		for _, f := range a.Report().Findings {
			if f.Shape != audit.ShapeChain {
				t.Errorf("seed %d: honest traffic matched equal-split shape %q at %q", seed, f.Shape, f.Root)
			}
		}
		if n := s.QuarantineCount(); n != 0 {
			t.Errorf("seed %d: %d honest participants quarantined: %v", seed, n, s.QuarantinedNames())
		}
	}
}

// TestIncrementalScanCatchesLateInjection: a scan after the auditor
// has gone idle (not its first pass) must pick up an attack that
// arrives later.
func TestIncrementalScanCatchesLateInjection(t *testing.T) {
	sc := treegen.Mix(rand.New(rand.NewSource(11)), treegen.ScenarioConfig{Honest: 32})
	s, a := newAuditedServer(t, audit.Config{})
	applyScenario(t, s, sc)
	a.Scan()
	if st := a.Scan(); !st.Skipped {
		t.Fatalf("idle honest server still scanning: %+v", st)
	}

	sponsor := sc.Honest[0]
	prev := sponsor
	chain := []string{"syb-late-0", "syb-late-1", "syb-late-2", "syb-late-3", "syb-late-4"}
	for _, n := range chain {
		if err := s.Join(n, prev); err != nil {
			t.Fatal(err)
		}
		if err := s.Contribute(n, 0.8); err != nil {
			t.Fatal(err)
		}
		prev = n
	}
	a.Scan()
	st := a.Scan()
	if st.Flagged != 1 {
		t.Fatalf("late ε-chain not flagged: %+v, report %+v", st, a.Report())
	}
	rep := a.Report()
	if len(rep.Findings) != 1 || rep.Findings[0].Root != chain[0] || rep.Findings[0].Shape != audit.ShapeEpsilonChain {
		t.Fatalf("findings %+v, want one ε-chain at %q", rep.Findings, chain[0])
	}
}

// TestScanFindsChainExposedBySiblingJoin: an honest join that branches
// a flagged ε-chain ends the finding at its head, but the chain below
// the branch is still an ε-chain under a new head, and a later scan
// must flag it there.
func TestScanFindsChainExposedBySiblingJoin(t *testing.T) {
	s, a := newAuditedServer(t, audit.Config{})
	chain := []string{"a0", "a1", "a2", "a3", "a4", "a5"}
	sponsor := ""
	for _, n := range chain {
		if err := s.Join(n, sponsor); err != nil {
			t.Fatal(err)
		}
		if err := s.Contribute(n, 1); err != nil {
			t.Fatal(err)
		}
		sponsor = n
	}
	a.Scan()
	a.Scan()
	if f, ok := findingAt(a.Report(), "a0"); !ok || !f.Flagged || f.Shape != audit.ShapeEpsilonChain {
		t.Fatalf("finding at a0 = %+v (tracked %v), want a flagged ε-chain", f, ok)
	}

	if err := s.Join("x", "a1"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		a.Scan()
	}
	f, ok := findingAt(a.Report(), "a2")
	if !ok || !f.Flagged || f.Shape != audit.ShapeEpsilonChain || !slices.Equal(f.Members, chain[2:]) {
		t.Fatalf("finding at a2 = %+v (tracked %v), want a flagged ε-chain of %v; report %+v",
			f, ok, chain[2:], a.Report())
	}
}

// findingAt returns the report's finding rooted at root.
func findingAt(rep audit.Report, root string) (audit.Finding, bool) {
	for _, f := range rep.Findings {
		if f.Root == root {
			return f, true
		}
	}
	return audit.Finding{}, false
}

// TestScanRacesWrites: scans and reports run against a server taking
// joins, contributions and quarantine flips from several writers. Every
// call returns, and once the writers stop a scan examines every node of
// the tree.
func TestScanRacesWrites(t *testing.T) {
	s, a := newAuditedServer(t, audit.Config{AutoQuarantine: true})
	if err := s.Join("root", ""); err != nil {
		t.Fatal(err)
	}
	const writers, ops = 4, 60
	ctx := context.Background()
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			prev := "root"
			for i := 0; i < ops; i++ {
				name := fmt.Sprintf("w%d-%d", w, i)
				if _, err := s.SubmitJoin(ctx, name, prev); err != nil {
					t.Error(err)
					return
				}
				if _, err := s.SubmitContribute(ctx, name, 1); err != nil {
					t.Error(err)
					return
				}
				// Quarantine flips answer 409 when an auditor's own
				// quarantine got there first; only a lost call matters.
				if i%5 == 0 {
					_ = s.Quarantine(name)
					_ = s.Unquarantine(name)
				}
				prev = name
			}
		}()
	}
	done := make(chan struct{})
	scanned := make(chan int)
	go func() {
		n := 0
		for {
			select {
			case <-done:
				scanned <- n
				return
			default:
			}
			a.Scan()
			a.Report()
			n++
		}
	}()
	wg.Wait()
	close(done)
	if n := <-scanned; n == 0 {
		t.Fatal("no scan ran beside the writers")
	}

	// Move the version once more, so the final scan cannot be skipped.
	if err := s.Contribute("root", 1); err != nil {
		t.Fatal(err)
	}
	st := a.Scan()
	tr, _, _ := s.AuditSnapshot()
	if st.Skipped || st.Candidates != tr.Len() {
		t.Fatalf("final scan %+v, want %d candidates (every node)", st, tr.Len())
	}
}

// TestVersionMovesTriggerScan: once the auditor is idle, a quarantine
// flip and a restore each move the server's version, so the next scan
// runs, and the one after it is skipped again.
func TestVersionMovesTriggerScan(t *testing.T) {
	s, a := newAuditedServer(t, audit.Config{})
	if err := s.Join("alice", ""); err != nil {
		t.Fatal(err)
	}
	a.Scan()
	for _, move := range []struct {
		name string
		do   func() error
	}{
		{"quarantine", func() error { return s.Quarantine("alice") }},
		{"unquarantine", func() error { return s.Unquarantine("alice") }},
		{"restore", func() error { return s.RestoreState(s.SnapshotState()) }},
	} {
		if st := a.Scan(); !st.Skipped {
			t.Fatalf("before %s: idle scan ran: %+v", move.name, st)
		}
		if err := move.do(); err != nil {
			t.Fatal(err)
		}
		if st := a.Scan(); st.Skipped || st.Candidates != 2 {
			t.Fatalf("after %s: scan %+v, want both nodes examined", move.name, st)
		}
	}
}
