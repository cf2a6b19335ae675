package audit

import (
	"errors"
	"sort"
	"strings"
	"testing"

	"incentivetree/internal/core"
	"incentivetree/internal/geometric"
	"incentivetree/internal/obs"
	"incentivetree/internal/tree"
)

// fakeSource is a Source over a mutable tree, for driving the auditor
// directly in unit tests.
type fakeSource struct {
	t           *tree.Tree
	m           core.Mechanism
	version     uint64
	quarantined map[string]bool
	failWith    error
}

func newFakeSource(t *testing.T) *fakeSource {
	t.Helper()
	m, err := geometric.Default(core.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	return &fakeSource{t: tree.New(), m: m, quarantined: make(map[string]bool)}
}

func (f *fakeSource) Version() uint64 { return f.version }

func (f *fakeSource) AuditSnapshot() (*tree.Tree, []string, uint64) {
	names := make([]string, 0, len(f.quarantined))
	for n := range f.quarantined {
		names = append(names, n)
	}
	sort.Strings(names)
	return f.t.Clone(), names, f.version
}

func (f *fakeSource) Mechanism() core.Mechanism { return f.m }

func (f *fakeSource) Quarantine(name string) error {
	if f.failWith != nil {
		return f.failWith
	}
	f.quarantined[name] = true
	return nil
}

func (f *fakeSource) QuarantineCount() int { return len(f.quarantined) }

func findingFor(rep Report, root string) (Finding, bool) {
	for _, fd := range rep.Findings {
		if fd.Root == root {
			return fd, true
		}
	}
	return Finding{}, false
}

// TestHysteresis walks a suspect through its whole lifecycle: two
// confirming scans to flag, decay while the shape persists elsewhere is
// absent, unflag below ClearScore, and eventual eviction.
func TestHysteresis(t *testing.T) {
	src := newFakeSource(t)
	sponsor := src.t.MustAdd(tree.Root, 2)
	src.t.MustAdd(sponsor, 3)
	ids := buildChain(src.t, sponsor, 4, []float64{0.7, 0.7, 0.7, 0.7})
	head := src.t.Label(ids[0])

	a := New(Config{}, src)
	st := a.Scan()
	if st.Skipped || st.Detected != 1 {
		t.Fatalf("first scan: %+v, want one detection", st)
	}
	fd, ok := findingFor(a.Report(), head)
	if !ok || fd.Flagged {
		t.Fatalf("after one scan: %+v ok=%v, want tracked but unflagged", fd, ok)
	}
	if fd.Shape != ShapeEpsilonChain {
		t.Fatalf("shape = %q, want ε-chain", fd.Shape)
	}

	if st = a.Scan(); st.Flagged != 1 {
		t.Fatalf("second scan: %+v, want the suspect flagged", st)
	}
	fd, _ = findingFor(a.Report(), head)
	if !fd.Flagged || fd.Score < flagScore {
		t.Fatalf("after two scans: %+v, want flagged", fd)
	}

	// Break the shape: the head branches, so no single-child chain of
	// depth 4 remains. Decay takes over.
	src.t.MustAdd(ids[0], 0.2)
	src.t.MustAdd(ids[0], 0.3)
	a.Scan()
	fd, ok = findingFor(a.Report(), head)
	if !ok || !fd.Flagged {
		t.Fatalf("one clean scan: %+v ok=%v, hysteresis should hold the flag", fd, ok)
	}
	a.Scan()
	fd, ok = findingFor(a.Report(), head)
	if !ok || fd.Flagged {
		t.Fatalf("two clean scans: %+v ok=%v, want unflagged but tracked", fd, ok)
	}
	a.Scan()
	if fd, ok = findingFor(a.Report(), head); ok {
		t.Fatalf("three clean scans: suspect %+v still tracked, want evicted", fd)
	}
}

func TestScanSkipsWhenIdle(t *testing.T) {
	src := newFakeSource(t)
	src.t.MustAdd(tree.Root, 1)
	a := New(Config{}, src)
	if st := a.Scan(); st.Skipped {
		t.Fatal("first scan skipped; must be a full pass")
	}
	if st := a.Scan(); !st.Skipped {
		t.Fatalf("idle scan not skipped: %+v", st)
	}
	src.version++
	if st := a.Scan(); st.Skipped {
		t.Fatal("scan after a new commit version skipped")
	}
}

func TestAutoQuarantine(t *testing.T) {
	src := newFakeSource(t)
	sponsor := src.t.MustAdd(tree.Root, 2)
	src.t.MustAdd(sponsor, 3)
	ids := buildChain(src.t, sponsor, 5, []float64{0.7, 0.7, 0.7, 0.7, 0.7})
	head := src.t.Label(ids[0])

	a := New(Config{AutoQuarantine: true}, src)
	a.Scan()
	if len(src.quarantined) != 0 {
		t.Fatalf("quarantined before the flag threshold: %v", src.quarantined)
	}
	st := a.Scan()
	// ε-chain severity 1.0 ≥ quarantineSeverity: the head — and only
	// the head, masking covers the subtree — is quarantined.
	if st.Quarantined != 1 || !src.quarantined[head] || len(src.quarantined) != 1 {
		t.Fatalf("stats %+v quarantined %v, want exactly the chain head %q", st, src.quarantined, head)
	}
	fd, _ := findingFor(a.Report(), head)
	if !fd.AutoQuarantined {
		t.Fatalf("finding %+v not marked auto-quarantined", fd)
	}
	// Idempotent: re-scans do not retry quarantined roots.
	if st = a.Scan(); st.Quarantined != 0 {
		t.Fatalf("re-scan quarantined again: %+v", st)
	}
}

// TestAutoQuarantineSeverityGate: an irregular chain (base severity
// 0.8) flags for the report but is never quarantined automatically —
// even when the sybil probe confirms the shape out-earns a single
// honest node. Honest trees grow irregular chains too, so the gate
// compares the shape's base severity, not the probe-boosted one.
func TestAutoQuarantineSeverityGate(t *testing.T) {
	src := newFakeSource(t)
	sponsor := src.t.MustAdd(tree.Root, 2)
	src.t.MustAdd(sponsor, 3)
	ids := buildChain(src.t, sponsor, 4, []float64{0.5, 1.7, 2.3, 0.9})
	head := src.t.Label(ids[0])

	a := New(Config{AutoQuarantine: true}, src)
	a.Scan()
	a.Scan()
	fd, ok := findingFor(a.Report(), head)
	if !ok || !fd.Flagged || fd.Shape != ShapeChain {
		t.Fatalf("finding %+v ok=%v, want flagged plain chain", fd, ok)
	}
	if fd.ProbeGain <= 0 {
		t.Fatalf("finding %+v, want positive probe gain (geometric rewards chains)", fd)
	}
	if fd.Severity <= severityChain {
		t.Fatalf("severity %v not probe-boosted", fd.Severity)
	}
	if len(src.quarantined) != 0 {
		t.Fatalf("probe-boosted plain chain auto-quarantined: %v", src.quarantined)
	}
}

func TestAutoQuarantineRetriesAfterFailure(t *testing.T) {
	src := newFakeSource(t)
	sponsor := src.t.MustAdd(tree.Root, 2)
	src.t.MustAdd(sponsor, 3)
	buildChain(src.t, sponsor, 4, []float64{0.7, 0.7, 0.7, 0.7})

	src.failWith = errors.New("journal down")
	a := New(Config{AutoQuarantine: true}, src)
	a.Scan()
	if st := a.Scan(); st.Quarantined != 0 {
		t.Fatalf("quarantine reported despite failure: %+v", st)
	}
	src.failWith = nil
	if st := a.Scan(); st.Quarantined != 1 {
		t.Fatalf("failed quarantine not retried: %+v", st)
	}
}

// TestProbeSingleIdentityIsNeutral: one identity holding the whole
// contribution IS the honest arrangement, so the gain is exactly zero.
func TestProbeSingleIdentityIsNeutral(t *testing.T) {
	src := newFakeSource(t)
	sponsor := src.t.MustAdd(tree.Root, 2)
	leaf := src.t.MustAdd(sponsor, 1.5)
	gain, ok := probeGain(src.m, src.t, []tree.NodeID{leaf}, 64)
	if !ok || gain != 0 {
		t.Fatalf("gain = %v ok = %v, want exactly 0", gain, ok)
	}
}

func TestProbeRejectsInvalidSets(t *testing.T) {
	src := newFakeSource(t)
	a := src.t.MustAdd(tree.Root, 1)
	b := src.t.MustAdd(tree.Root, 1)
	ab := src.t.MustAdd(a, 1)
	if _, ok := probeGain(src.m, src.t, nil, 64); ok {
		t.Fatal("empty member set probed")
	}
	// Members under two different external parents are not one
	// attachable arrangement.
	if _, ok := probeGain(src.m, src.t, []tree.NodeID{ab, b}, 64); ok {
		t.Fatal("scattered member set probed")
	}
	// Footprint cap: member plus its descendant subtree exceeds 1.
	if _, ok := probeGain(src.m, src.t, []tree.NodeID{a}, 1); ok {
		t.Fatal("over-budget probe ran")
	}
}

// TestProbeChainGain: the probe's verdict on an ε-chain must agree with
// the mechanism's actual reward arithmetic — computed here directly by
// evaluating both trees — not just have the right sign.
func TestProbeChainGain(t *testing.T) {
	src := newFakeSource(t)
	sponsor := src.t.MustAdd(tree.Root, 2)
	src.t.MustAdd(sponsor, 3)
	ids := buildChain(src.t, sponsor, 5, []float64{0.7, 0.7, 0.7, 0.7, 0.7})

	gain, ok := probeGain(src.m, src.t, ids, 64)
	if !ok {
		t.Fatal("chain probe skipped")
	}

	split, err := src.m.Rewards(src.t)
	if err != nil {
		t.Fatal(err)
	}
	chainTotal := 0.0
	for _, id := range ids {
		chainTotal += split[id]
	}
	// The honest counterfactual: same tree with the chain collapsed to
	// one node holding the total contribution.
	honest := tree.New()
	hs := honest.MustAdd(tree.Root, 2)
	honest.MustAdd(hs, 3)
	single := honest.MustAdd(hs, 5*0.7)
	hr, err := src.m.Rewards(honest)
	if err != nil {
		t.Fatal(err)
	}
	want := chainTotal - hr[single]
	if diff := gain - want; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("probe gain = %v, direct computation = %v", gain, want)
	}
}

func TestMetricsLifecycle(t *testing.T) {
	src := newFakeSource(t)
	sponsor := src.t.MustAdd(tree.Root, 2)
	src.t.MustAdd(sponsor, 3)
	buildChain(src.t, sponsor, 4, []float64{0.7, 0.7, 0.7, 0.7})

	reg := obs.NewRegistry()
	a := New(Config{Registry: reg, Labels: []string{"campaign", "c1"}, AutoQuarantine: true}, src)
	a.Scan()
	a.Scan()
	render := func() string {
		var b strings.Builder
		if err := reg.WritePrometheus(&b); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	dump := render()
	for _, want := range []string{
		`itree_audit_scans_total{campaign="c1"} 2`,
		`itree_audit_findings_total{campaign="c1",shape="epsilon-chain"} 1`,
		`itree_audit_quarantines_total{campaign="c1"} 1`,
		`itree_audit_flagged{campaign="c1"} 1`,
		`itree_audit_quarantined_nodes{campaign="c1"} 1`,
	} {
		if !strings.Contains(dump, want) {
			t.Fatalf("metrics dump missing %q:\n%s", want, dump)
		}
	}
	a.Close()
	if dump := render(); strings.Contains(dump, "itree_audit_") {
		t.Fatalf("audit series survived Close:\n%s", dump)
	}
}
