// Package geometric implements the (a,b)-Geometric Mechanism (Algorithm 1
// of the paper): a fraction of every node's contribution "bubbles up" its
// ancestor path with geometric decay,
//
//	R(u) = sum_{v in T_u} a^{dep_u(v)} * b * C(v).
//
// With phi <= b <= (1-a)*Phi the mechanism satisfies the budget constraint
// and phi-RPC; Theorem 1 states it achieves every desirable property
// except USA and UGSA (a participant gains by splitting into a chain of
// Sybil identities and collecting its own bubbled-up reward).
package geometric

import (
	"fmt"

	"incentivetree/internal/core"
	"incentivetree/internal/tree"
)

// Mechanism is an (a,b)-Geometric mechanism instance. Construct with New.
type Mechanism struct {
	params core.Params
	a, b   float64
}

// New validates the parameter regime of Theorem 1 (0 < a < 1,
// phi <= b <= (1-a)*Phi, b > 0) and returns the mechanism.
func New(p core.Params, a, b float64) (*Mechanism, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if !(a > 0 && a < 1) {
		return nil, fmt.Errorf("%w: geometric decay a = %v, need 0 < a < 1", core.ErrBadParams, a)
	}
	if !(b > 0) {
		return nil, fmt.Errorf("%w: bubble fraction b = %v, need b > 0", core.ErrBadParams, b)
	}
	if b < p.FairShare {
		return nil, fmt.Errorf("%w: b = %v below fairness floor phi = %v", core.ErrBadParams, b, p.FairShare)
	}
	if b > (1-a)*p.Phi {
		return nil, fmt.Errorf("%w: b = %v exceeds budget bound (1-a)*Phi = %v", core.ErrBadParams, b, (1-a)*p.Phi)
	}
	return &Mechanism{params: p, a: a, b: b}, nil
}

// Default returns the (a,b)-Geometric instance used across the
// experiments: a = 1/3 and b at the budget bound (1-a)*Phi, maximizing
// reward flow within the admissible region.
func Default(p core.Params) (*Mechanism, error) {
	const a = 1.0 / 3.0
	return New(p, a, (1-a)*p.Phi)
}

// Name implements core.Mechanism.
func (m *Mechanism) Name() string {
	return fmt.Sprintf("Geometric(a=%.3g,b=%.3g)", m.a, m.b)
}

// Params implements core.Mechanism.
func (m *Mechanism) Params() core.Params { return m.params }

// A returns the geometric decay parameter.
func (m *Mechanism) A() float64 { return m.a }

// B returns the bubble-up fraction.
func (m *Mechanism) B() float64 { return m.b }

// Rewards implements core.Mechanism in O(n): the weighted subtree sum
// S(u) = C(u) + a * sum_{child k} S(k) satisfies R(u) = b * S(u), and ids
// are topological so a single reverse scan computes all S bottom-up.
func (m *Mechanism) Rewards(t *tree.Tree) (core.Rewards, error) {
	return m.RewardsInto(t, nil)
}

// RewardsInto implements core.IntoMechanism with zero allocations,
// through the local form.
func (m *Mechanism) RewardsInto(t *tree.Tree, buf core.Rewards) (core.Rewards, error) {
	return core.EvalLocal(m, t, buf)
}

// Local implements core.Mechanism: the mechanism is its own local form,
// with A(u) = a * sum_{child k} S(k), so that S(u) = A(u) + C(u). C(u)
// is added after the children's terms, as the bottom-up pass always
// has.
func (m *Mechanism) Local() core.Local { return m }

// Start implements core.Local.
func (m *Mechanism) Start(*tree.Tree, tree.NodeID) float64 { return 0 }

// Term implements core.Local: a * S(k).
func (m *Mechanism) Term(t *tree.Tree, agg []float64, k tree.NodeID) float64 {
	return m.a * (agg[k] + t.Contribution(k))
}

// Reward implements core.Local: R(u) = b * S(u).
func (m *Mechanism) Reward(t *tree.Tree, agg []float64, u tree.NodeID, _ float64) float64 {
	return m.b * (agg[u] + t.Contribution(u))
}

// UsesTotal implements core.Local.
func (m *Mechanism) UsesTotal() bool { return false }
