package tdrm

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"incentivetree/internal/core"
	"incentivetree/internal/numeric"
	"incentivetree/internal/tree"
	"incentivetree/internal/treegen"
)

func mustTDRM(t *testing.T, p core.Params, lambda, mu, a, b float64) *Mechanism {
	t.Helper()
	m, err := New(p, lambda, mu, a, b)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return m
}

func TestNewValidation(t *testing.T) {
	p := core.Params{Phi: 0.5, FairShare: 0.05} // Phi - phi = 0.45
	tests := []struct {
		name             string
		lambda, mu, a, b float64
		wantErr          bool
	}{
		{"valid", 0.2, 1, 0.3, 0.3, false},
		{"lambda zero", 0, 1, 0.3, 0.3, true},
		{"lambda at ceiling", 0.45, 1, 0.3, 0.3, true},
		{"lambda above ceiling", 0.6, 1, 0.3, 0.3, true},
		{"mu zero", 0.2, 0, 0.3, 0.3, true},
		{"a zero", 0.2, 1, 0, 0.3, true},
		{"a one", 0.2, 1, 1, 0.3, true},
		{"b zero", 0.2, 1, 0.3, 0, true},
		{"a plus b one", 0.2, 1, 0.5, 0.5, true},
		{"a plus b above one", 0.2, 1, 0.6, 0.5, true},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			_, err := New(p, tc.lambda, tc.mu, tc.a, tc.b)
			if (err != nil) != tc.wantErr {
				t.Fatalf("err = %v, wantErr %v", err, tc.wantErr)
			}
			if err != nil && !errors.Is(err, core.ErrBadParams) {
				t.Fatalf("error should wrap ErrBadParams: %v", err)
			}
		})
	}
}

func TestDefaultIsValid(t *testing.T) {
	if _, err := Default(core.DefaultParams()); err != nil {
		t.Fatalf("Default: %v", err)
	}
}

// TestRewardsHandComputed evaluates Algorithm 4 on a fully hand-computed
// case. Parameters: Phi=0.5, phi=0.05, lambda=0.25, mu=1, a=0.5, b=0.25.
// Tree: u (C=1.5) -> v (C=1).
//
// RCT: u = [head 0.5, tail 1], v = [1] under u's tail.
//
//	S(v) = 1; S(u_tail) = 1 + 0.5*1 = 1.5; S(u_head) = 0.5 + 0.5*1.5 = 1.25
//	scale = lambda*b/mu = 0.0625
//	R(u) = 0.0625*(0.5*1.25 + 1*1.5) + 0.05*1.5 = 0.1328125 + 0.075
//	R(v) = 0.0625*1*1 + 0.05*1 = 0.1125
func TestRewardsHandComputed(t *testing.T) {
	p := core.Params{Phi: 0.5, FairShare: 0.05}
	m := mustTDRM(t, p, 0.25, 1, 0.5, 0.25)
	tr := tree.FromSpecs(tree.Spec{C: 1.5, Kids: []tree.Spec{{C: 1}}})
	r, err := m.Rewards(tr)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := r.Of(1), 0.2078125; math.Abs(got-want) > 1e-12 {
		t.Errorf("R(u) = %v, want %v", got, want)
	}
	if got, want := r.Of(2), 0.1125; math.Abs(got-want) > 1e-12 {
		t.Errorf("R(v) = %v, want %v", got, want)
	}
}

func TestBudgetOnCorpus(t *testing.T) {
	m, err := Default(core.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	for i, tr := range treegen.Corpus(41, 25, 60) {
		r, err := m.Rewards(tr)
		if err != nil {
			t.Fatalf("tree %d: %v", i, err)
		}
		if err := core.Audit(m, tr, r); err != nil {
			t.Fatalf("tree %d: %v", i, err)
		}
	}
}

func TestFairnessFloorOnCorpus(t *testing.T) {
	p := core.Params{Phi: 0.5, FairShare: 0.1}
	m := mustTDRM(t, p, 0.2, 1, 0.3, 0.3)
	for _, tr := range treegen.Corpus(42, 10, 40) {
		r, err := m.Rewards(tr)
		if err != nil {
			t.Fatal(err)
		}
		for _, u := range tr.Nodes() {
			floor := p.FairShare * tr.Contribution(u)
			if !numeric.LessOrAlmostEqual(floor, r.Of(u), numeric.Eps) {
				t.Fatalf("R(%d) = %v below fairness floor %v", u, r.Of(u), floor)
			}
		}
	}
}

// TestAppendixUROBound reproduces the appendix bound used in the URO
// proof: for u with contribution epsilon (s = 0), a child v of
// contribution mu, and v having l children of contribution mu each,
// R(u) >= l * a^2 * b * lambda * epsilon.
func TestAppendixUROBound(t *testing.T) {
	p := core.Params{Phi: 0.5, FairShare: 0.05}
	lambda, mu, a, b := 0.25, 1.0, 0.4, 0.3
	m := mustTDRM(t, p, lambda, mu, a, b)
	for _, l := range []int{1, 5, 20, 100} {
		eps := 0.7
		kids := make([]tree.Spec, l)
		for i := range kids {
			kids[i] = tree.Spec{C: mu}
		}
		tr := tree.FromSpecs(tree.Spec{C: eps, Kids: []tree.Spec{{C: mu, Kids: kids}}})
		r, err := m.Rewards(tr)
		if err != nil {
			t.Fatal(err)
		}
		bound := float64(l) * a * a * b * lambda * eps
		if got := r.Of(1); got < bound-1e-12 {
			t.Fatalf("l=%d: R(u) = %v below appendix bound %v", l, got, bound)
		}
	}
}

// TestURORewardGrowsWithFanout is the URO mechanism in action: with own
// contribution fixed, R(u) grows without bound in the grandchild fanout.
func TestURORewardGrowsWithFanout(t *testing.T) {
	m, err := Default(core.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	prev := -1.0
	for _, l := range []int{1, 10, 100, 1000} {
		kids := make([]tree.Spec, l)
		for i := range kids {
			kids[i] = tree.Spec{C: 1}
		}
		tr := tree.FromSpecs(tree.Spec{C: 0.5, Kids: []tree.Spec{{C: 1, Kids: kids}}})
		r, err := m.Rewards(tr)
		if err != nil {
			t.Fatal(err)
		}
		if got := r.Of(1); got <= prev {
			t.Fatalf("l=%d: R(u) = %v did not grow (prev %v)", l, got, prev)
		} else {
			prev = got
		}
	}
	// Any mechanism bounded by Phi*x_u would cap R(u) at 0.25 here; TDRM
	// is far beyond it and still growing linearly in l.
	if prev < 1 {
		t.Fatalf("reward saturated at %v", prev)
	}
}

// TestUGSACounterexample reproduces the end-of-Sect.-5 counterexample:
// u with C(u) = mu/2 and k children of contribution mu, k > 1/(a*b*lambda);
// raising C(u) to mu strictly increases u's PROFIT, violating UGSA.
// The paper's closed form for the doubled case, P'(u) =
// (ak+1)*lambda*mu*b + phi*mu - mu, is checked exactly.
func TestUGSACounterexample(t *testing.T) {
	p := core.Params{Phi: 0.5, FairShare: 0.05}
	lambda, mu, a, b := 0.25, 1.0, 0.4, 0.3
	m := mustTDRM(t, p, lambda, mu, a, b)
	k := int(1/(a*b*lambda)) + 5 // k > 1/(a*b*lambda)
	kids := make([]tree.Spec, k)
	for i := range kids {
		kids[i] = tree.Spec{C: mu}
	}

	half := tree.FromSpecs(tree.Spec{C: mu / 2, Kids: kids})
	rHalf, err := m.Rewards(half)
	if err != nil {
		t.Fatal(err)
	}
	profitHalf := core.Profit(half, rHalf, 1)

	full := tree.FromSpecs(tree.Spec{C: mu, Kids: kids})
	rFull, err := m.Rewards(full)
	if err != nil {
		t.Fatal(err)
	}
	profitFull := core.Profit(full, rFull, 1)

	if profitFull <= profitHalf {
		t.Fatalf("UGSA counterexample failed: P'(u) = %v <= P(u) = %v", profitFull, profitHalf)
	}
	wantFull := (a*float64(k)+1)*lambda*mu*b + p.FairShare*mu - mu
	if math.Abs(profitFull-wantFull) > 1e-12 {
		t.Fatalf("P'(u) = %v, want paper closed form %v", profitFull, wantFull)
	}
}

// TestUSASplitDoesNotHelp spot-checks the Theorem 4 USA claim on the
// canonical splits: a participant of contribution 2*mu earns exactly the
// same by joining as the mechanism's own epsilon-chain, and strictly less
// by joining as two sibling Sybils.
func TestUSASplitDoesNotHelp(t *testing.T) {
	m, err := Default(core.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	mu := m.Mu()

	single := tree.FromSpecs(tree.Spec{C: 2 * mu})
	rs, err := m.Rewards(single)
	if err != nil {
		t.Fatal(err)
	}
	rewardSingle := rs.Of(1)

	chain := tree.FromSpecs(tree.Chain(mu, mu))
	rc, err := m.Rewards(chain)
	if err != nil {
		t.Fatal(err)
	}
	rewardChain := rc.Of(1) + rc.Of(2)
	if math.Abs(rewardChain-rewardSingle) > 1e-12 {
		t.Fatalf("chain split reward %v != single reward %v (mechanism already gives the best split)",
			rewardChain, rewardSingle)
	}

	siblings := tree.FromSpecs(tree.Spec{C: mu}, tree.Spec{C: mu})
	rb, err := m.Rewards(siblings)
	if err != nil {
		t.Fatal(err)
	}
	rewardSiblings := rb.Of(1) + rb.Of(2)
	if rewardSiblings >= rewardSingle-1e-12 {
		t.Fatalf("sibling split reward %v should be strictly below single reward %v",
			rewardSiblings, rewardSingle)
	}
}

// TestSubtreeLocality: TDRM reward depends only on T_u.
func TestSubtreeLocality(t *testing.T) {
	m, err := Default(core.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	tr := tree.FromSpecs(tree.Spec{C: 2, Kids: []tree.Spec{{C: 1.3}}})
	before, err := m.Rewards(tr)
	if err != nil {
		t.Fatal(err)
	}
	grown := tr.Clone()
	grown.MustAdd(tree.Root, 50) // disjoint growth
	after, err := m.Rewards(grown)
	if err != nil {
		t.Fatal(err)
	}
	for _, u := range tr.Nodes() {
		if !numeric.AlmostEqual(before.Of(u), after.Of(u), numeric.Eps) {
			t.Fatalf("R(%d) changed from %v to %v on outside growth", u, before.Of(u), after.Of(u))
		}
	}
}

func TestPreliminaryViolatesBudget(t *testing.T) {
	pre := Preliminary{A: 0.5, B: 0.25}
	// Single node with C = 10: R = 0.25 * 100 = 25 > Phi*C for any Phi <= 1.
	tr := tree.FromSpecs(tree.Spec{C: 10})
	r := pre.Rewards(tr)
	if got := r.Of(1); got != 25 {
		t.Fatalf("preliminary R = %v, want 25", got)
	}
	if r.Of(1) <= tr.Total() {
		t.Fatal("preliminary mechanism should overshoot any linear budget here")
	}
}

func TestPreliminaryQuadraticSplitPenalty(t *testing.T) {
	pre := Preliminary{A: 0.5, B: 0.25}
	single := tree.FromSpecs(tree.Spec{C: 2})
	rSingle := pre.Rewards(single).Of(1)
	split := tree.FromSpecs(tree.Chain(1, 1))
	rs := pre.Rewards(split)
	if got := rs.Of(1) + rs.Of(2); got >= rSingle {
		t.Fatalf("quadratic structure should punish splitting: split %v >= single %v", got, rSingle)
	}
}

func TestAccessors(t *testing.T) {
	p := core.Params{Phi: 0.5, FairShare: 0.05}
	m := mustTDRM(t, p, 0.2, 1.5, 0.3, 0.25)
	if m.Lambda() != 0.2 || m.Mu() != 1.5 || m.A() != 0.3 || m.B() != 0.25 {
		t.Fatalf("accessors mismatch: %v %v %v %v", m.Lambda(), m.Mu(), m.A(), m.B())
	}
	if m.Params() != p {
		t.Fatalf("Params = %+v", m.Params())
	}
	if m.Name() == "" {
		t.Fatal("empty name")
	}
}

func TestRewardsRejectsInvalidTree(t *testing.T) {
	m, err := Default(core.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	var empty tree.Tree
	if _, err := m.Rewards(&empty); err == nil {
		t.Fatal("rootless tree should be rejected")
	}
}

// rctOracle evaluates t the paper's way: Transform into the RCT,
// NodeRewards on it, and each participant's chain summed head to tail.
func rctOracle(t *testing.T, m *Mechanism, tr *tree.Tree) core.Rewards {
	t.Helper()
	rct, err := Transform(tr, m.Mu())
	if err != nil {
		t.Fatal(err)
	}
	nr := m.NodeRewards(rct)
	out := make(core.Rewards, tr.Len())
	for _, u := range tr.Nodes() {
		for _, w := range rct.Chains[u] {
			out[u] += nr[w]
		}
	}
	return out
}

// TestClosedFormMatchesRCT checks the closed-form chain fold that
// Rewards serves against the RCT evaluation, within relative 1e-12, on
// populations with zero contributions and chains hundreds of nodes
// long, under the default and a non-default parameterization.
func TestClosedFormMatchesRCT(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	zeros := treegen.Random(rng, treegen.Config{N: 300, Contrib: func(r *rand.Rand) float64 {
		if r.Intn(3) == 0 {
			return 0
		}
		return r.Float64() * 6
	}})
	long := treegen.Random(rng, treegen.Config{N: 120, Contrib: treegen.Uniform(100, 900), Attach: treegen.DeepAttach})
	pops := append(treegen.Corpus(43, 20, 80), zeros, long,
		tree.FromSpecs(tree.Chain(0, 250.5, 0, 731, 1e-9, 399.999)),
		tree.FromSpecs(tree.Star(512, 0, 3.25, 640.125, 0)))
	p := core.DefaultParams()
	mechs := []*Mechanism{mustTDRM(t, p, 0.36, 1, 1.0/3, 1.0/3), mustTDRM(t, p, 0.2, 2.5, 0.6, 0.3)}
	worst := 0.0
	for _, m := range mechs {
		for i, tr := range pops {
			got, err := m.Rewards(tr)
			if err != nil {
				t.Fatal(err)
			}
			want := rctOracle(t, m, tr)
			for _, u := range tr.Nodes() {
				if want[u] == 0 {
					if got[u] != 0 {
						t.Fatalf("%s tree %d node %d: closed form %v, RCT 0", m.Name(), i, u, got[u])
					}
					continue
				}
				d := math.Abs(got[u]-want[u]) / math.Abs(want[u])
				worst = max(worst, d)
				if d > 1e-12 {
					t.Fatalf("%s tree %d node %d (C=%v): closed form %v, RCT %v, relative %.3g",
						m.Name(), i, u, tr.Contribution(u), got[u], want[u], d)
				}
			}
		}
	}
	t.Logf("largest relative distance from the RCT evaluation: %.3g", worst)
}

func TestPowInt(t *testing.T) {
	for _, x := range []float64{0, 1.0 / 3, 0.6, 2} {
		for n := 0; n < 70; n++ {
			want := math.Pow(x, float64(n))
			if got := powInt(x, n); !numeric.AlmostEqual(got, want, 1e-14) {
				t.Fatalf("powInt(%v, %d) = %v, want %v", x, n, got, want)
			}
		}
	}
}

// TestClosedFormHugeContributions folds chains longer than an int can
// count, under a mu whose multiples round: every reward stays finite,
// non-negative and within budget, and ChainLength saturates.
func TestClosedFormHugeContributions(t *testing.T) {
	p := core.DefaultParams()
	for _, mu := range []float64{1, 0.3, 7} {
		m := mustTDRM(t, p, 0.36, mu, 1.0/3, 1.0/3)
		for _, c := range []float64{1e16 + 2, 1e17, 1e19, 1e20, 1e300} {
			tr := tree.FromSpecs(tree.Chain(1, c, 2))
			r, err := m.Rewards(tr)
			if err != nil {
				t.Fatal(err)
			}
			for _, u := range tr.Nodes() {
				if math.IsInf(r[u], 0) || math.IsNaN(r[u]) {
					t.Fatalf("mu=%v C=%v: node %d rewarded %v", mu, c, u, r[u])
				}
			}
			if err := core.Audit(m, tr, r); err != nil {
				t.Fatalf("mu=%v C=%v: %v", mu, c, err)
			}
		}
	}
	if n := ChainLength(1e300, 1); n != math.MaxInt {
		t.Fatalf("ChainLength(1e300, 1) = %d, want math.MaxInt", n)
	}
}
