// Package lottree implements the fixed-total-reward Lottery Tree model of
// Douceur and Moscibroda (SIGCOMM 2007), the source of the Luxor and
// Pachira mechanisms, together with the "L-" lifting of Sect. 4.2 of the
// Incentive Tree paper that transforms any fixed-reward mechanism into an
// Incentive Tree mechanism by scaling its (normalized) reward shares by
// Phi * C(T).
//
// In the Lottery Tree model the system organizer spends a fixed amount of
// money; a mechanism therefore computes, for each participant, its
// expected share of a single normalized prize, with shares summing to at
// most 1.
//
// The paper does not restate Luxor's formula (only that L-Luxor "is very
// similar to the (a,b)-Geometric Mechanism, and achieves the same
// properties"); Luxor here is reconstructed accordingly as a normalized
// own-contribution term plus a geometrically decaying solicitation bonus.
// This reconstruction is documented in DESIGN.md; only its property
// profile is load-bearing for the paper's argument, and our property
// checkers confirm it matches the profile of Theorem 1.
package lottree

import (
	"fmt"
	"math"

	"incentivetree/internal/core"
	"incentivetree/internal/tree"
)

// Shares maps every node of a tree to its expected fraction of the fixed
// prize. Shares sum to at most 1; the imaginary root's entry is zero.
type Shares []float64

// Of returns the share of id, or 0 outside the tree.
func (s Shares) Of(id tree.NodeID) float64 {
	if id < 0 || int(id) >= len(s) {
		return 0
	}
	return s[id]
}

// Total returns the summed shares.
func (s Shares) Total() float64 {
	t := 0.0
	for _, v := range s {
		t += v
	}
	return t
}

// Mechanism is a fixed-total-reward (Lottery Tree) mechanism. Its local
// form (core.Local) rewards each participant with its share of the
// normalized prize: Shares evaluates that form over the whole tree, and
// the lifted mechanism scales it by Phi * C(T), so Shares, the lifted
// Rewards and a server's maintained aggregates all run the same steps.
type Mechanism interface {
	core.Local
	Name() string
	Shares(t *tree.Tree) (Shares, error)
}

// Luxor is the reconstructed Luxor mechanism: participant u's expected
// share is
//
//	beta * C(u)/C(T)
//	  + (1-beta) * ((1-a)/a) * sum_{v in T_u \ u} a^{dep_u(v)} C(v)/C(T).
//
// The solicitation coefficient is normalized so that each contribution
// hands out at most (1-beta) of itself along its ancestor chain, keeping
// total shares at most 1.
type Luxor struct {
	beta, a float64
}

// NewLuxor validates 0 < beta <= 1 and 0 < a < 1.
func NewLuxor(beta, a float64) (*Luxor, error) {
	if !(beta > 0 && beta <= 1) {
		return nil, fmt.Errorf("%w: luxor beta = %v, need 0 < beta <= 1", core.ErrBadParams, beta)
	}
	if !(a > 0 && a < 1) {
		return nil, fmt.Errorf("%w: luxor a = %v, need 0 < a < 1", core.ErrBadParams, a)
	}
	return &Luxor{beta: beta, a: a}, nil
}

// Name implements Mechanism.
func (l *Luxor) Name() string { return fmt.Sprintf("Luxor(beta=%.3g,a=%.3g)", l.beta, l.a) }

// Shares implements Mechanism in O(n) via bottom-up weighted sums.
func (l *Luxor) Shares(t *tree.Tree) (Shares, error) {
	r, err := core.EvalLocal(l, t, nil)
	return Shares(r), err
}

// Start implements core.Local: A(u) is the bubble sum
// sum_{v in T_u \ u} a^{dep_u(v)} C(v), which excludes C(u).
func (l *Luxor) Start(*tree.Tree, tree.NodeID) float64 { return 0 }

// Term implements core.Local: a * (bubble(k) + C(k)).
func (l *Luxor) Term(t *tree.Tree, agg []float64, k tree.NodeID) float64 {
	return l.a * (agg[k] + t.Contribution(k))
}

// UsesTotal implements core.Local.
func (l *Luxor) UsesTotal() bool { return true }

// Reward implements core.Local: u's share.
func (l *Luxor) Reward(t *tree.Tree, agg []float64, u tree.NodeID, total float64) float64 {
	if total == 0 {
		return 0
	}
	coeff := (1 - l.beta) * (1 - l.a) / l.a
	return (l.beta*t.Contribution(u) + coeff*agg[u]) / total
}

// Pachira is the Pachira mechanism from [7]: with the concave weighting
// pi(x) = beta*x + (1-beta)*x^(1+delta), participant u's expected share is
//
//	pi(C(T_u)/C(T)) - sum_{children q} pi(C(T_q)/C(T)).
//
// The concavity of the splitting argument (Jensen) is what buys USA.
type Pachira struct {
	beta, delta float64
}

// NewPachira validates 0 <= beta <= 1 and delta > 0.
func NewPachira(beta, delta float64) (*Pachira, error) {
	if !(beta >= 0 && beta <= 1) {
		return nil, fmt.Errorf("%w: pachira beta = %v, need 0 <= beta <= 1", core.ErrBadParams, beta)
	}
	if !(delta > 0) {
		return nil, fmt.Errorf("%w: pachira delta = %v, need delta > 0", core.ErrBadParams, delta)
	}
	return &Pachira{beta: beta, delta: delta}, nil
}

// Name implements Mechanism.
func (p *Pachira) Name() string {
	return fmt.Sprintf("Pachira(beta=%.3g,delta=%.3g)", p.beta, p.delta)
}

// Pi evaluates the weighting function pi(x) = beta*x + (1-beta)*x^(1+delta).
func (p *Pachira) Pi(x float64) float64 {
	return p.beta*x + (1-p.beta)*math.Pow(x, 1+p.delta)
}

// Shares implements Mechanism.
func (p *Pachira) Shares(t *tree.Tree) (Shares, error) {
	r, err := core.EvalLocal(p, t, nil)
	return Shares(r), err
}

// Start implements core.Local: A(u) is the subtree sum C(T_u), starting
// from C(u).
func (p *Pachira) Start(t *tree.Tree, u tree.NodeID) float64 { return t.Contribution(u) }

// Term implements core.Local: C(T_k).
func (p *Pachira) Term(_ *tree.Tree, agg []float64, k tree.NodeID) float64 { return agg[k] }

// UsesTotal implements core.Local.
func (p *Pachira) UsesTotal() bool { return true }

// Reward implements core.Local: u's share.
func (p *Pachira) Reward(t *tree.Tree, agg []float64, u tree.NodeID, total float64) float64 {
	if total == 0 {
		return 0
	}
	share := p.Pi(agg[u] / total)
	// Sibling-chain order is join order, keeping the float subtraction
	// sequence — and thus the bytes — unchanged.
	for q := t.FirstChild(u); q != tree.None; q = t.NextSibling(q) {
		share -= p.Pi(agg[q] / total)
	}
	if share < 0 {
		// Guard against float noise; pi's superadditivity on [0,1]
		// makes the exact value non-negative.
		share = 0
	}
	return share
}

// Lifted adapts a fixed-reward mechanism to the Incentive Tree model
// (Sect. 4.2): R(u) = Phi * C(T) * share(u).
type Lifted struct {
	inner  Mechanism
	params core.Params
	local  *liftedForm
}

// Lift wraps a lottery mechanism. Fairness-specific parameter regimes are
// validated by the NewL* helpers.
func Lift(inner Mechanism, p core.Params) (*Lifted, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return &Lifted{inner: inner, params: p, local: &liftedForm{inner, p.Phi}}, nil
}

// NewLPachira builds the (beta, delta)-L-Pachira mechanism of Theorem 2,
// validating beta >= phi/Phi so that phi-RPC holds.
func NewLPachira(p core.Params, beta, delta float64) (*Lifted, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if beta < p.FairShare/p.Phi {
		return nil, fmt.Errorf("%w: L-Pachira beta = %v below phi/Phi = %v",
			core.ErrBadParams, beta, p.FairShare/p.Phi)
	}
	inner, err := NewPachira(beta, delta)
	if err != nil {
		return nil, err
	}
	return Lift(inner, p)
}

// NewLLuxor builds the L-Luxor mechanism, validating beta >= phi/Phi for
// the fairness floor.
func NewLLuxor(p core.Params, beta, a float64) (*Lifted, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if beta < p.FairShare/p.Phi {
		return nil, fmt.Errorf("%w: L-Luxor beta = %v below phi/Phi = %v",
			core.ErrBadParams, beta, p.FairShare/p.Phi)
	}
	inner, err := NewLuxor(beta, a)
	if err != nil {
		return nil, err
	}
	return Lift(inner, p)
}

// Name implements core.Mechanism.
func (l *Lifted) Name() string { return "L-" + l.inner.Name() }

// Params implements core.Mechanism.
func (l *Lifted) Params() core.Params { return l.params }

// Rewards implements core.Mechanism.
func (l *Lifted) Rewards(t *tree.Tree) (core.Rewards, error) {
	return l.RewardsInto(t, nil)
}

// RewardsInto implements core.IntoMechanism through the local form.
func (l *Lifted) RewardsInto(t *tree.Tree, buf core.Rewards) (core.Rewards, error) {
	return core.EvalLocal(l.local, t, buf)
}

// Local implements core.Mechanism: R(u) = Phi * C(T) * share(u) over the
// inner mechanism's aggregates.
func (l *Lifted) Local() core.Local { return l.local }

// liftedForm is the local form of a lifted lottery mechanism: the inner
// mechanism's aggregates, with its shares scaled by Phi * C(T).
type liftedForm struct {
	core.Local
	phi float64
}

func (f liftedForm) Reward(t *tree.Tree, agg []float64, u tree.NodeID, total float64) float64 {
	return f.phi * total * f.Local.Reward(t, agg, u, total)
}

func (liftedForm) UsesTotal() bool { return true }
