package tdrm

import (
	"fmt"
	"math"

	"incentivetree/internal/core"
	"incentivetree/internal/tree"
)

// Mechanism is the TDRM mechanism of Algorithm 4. Construct with New.
type Mechanism struct {
	params core.Params
	lambda float64 // quadratic-term scale, lambda < Phi - phi
	mu     float64 // contribution cap simulated by the RCT
	a      float64 // geometric decay
	b      float64 // bubble fraction, a + b < 1
	// short caches the length-only part of the chain fold for the chain
	// lengths most participants have: the fold needs it at every node,
	// and a lookup spares powInt's data-dependent branches and two
	// divisions.
	short [128]chainConst
}

// New validates the Theorem 4 parameter regime: 0 < lambda < Phi - phi,
// mu > 0, 0 < a < 1, b > 0 and a + b < 1 (the paper states b < 1 - a; the
// budget proof uses sum_i a^i * b < 1).
func New(p core.Params, lambda, mu, a, b float64) (*Mechanism, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if !(lambda > 0 && lambda < p.Phi-p.FairShare) {
		return nil, fmt.Errorf("%w: lambda = %v, need 0 < lambda < Phi-phi = %v",
			core.ErrBadParams, lambda, p.Phi-p.FairShare)
	}
	if !(mu > 0) {
		return nil, fmt.Errorf("%w: mu = %v, need mu > 0", core.ErrBadParams, mu)
	}
	if !(a > 0 && a < 1) {
		return nil, fmt.Errorf("%w: a = %v, need 0 < a < 1", core.ErrBadParams, a)
	}
	if !(b > 0 && a+b < 1) {
		return nil, fmt.Errorf("%w: b = %v, need b > 0 and a+b < 1 (a = %v)",
			core.ErrBadParams, b, a)
	}
	m := &Mechanism{params: p, lambda: lambda, mu: mu, a: a, b: b}
	for n := range m.short {
		m.short[n] = m.chainConst(float64(n))
	}
	return m, nil
}

// Default returns the TDRM instance used across the experiments:
// lambda at 80% of its admissible ceiling, unit contribution cap, and
// a = b = 1/3.
func Default(p core.Params) (*Mechanism, error) {
	return New(p, 0.8*(p.Phi-p.FairShare), 1, 1.0/3.0, 1.0/3.0)
}

// Name implements core.Mechanism.
func (m *Mechanism) Name() string {
	return fmt.Sprintf("TDRM(lambda=%.3g,mu=%.3g,a=%.3g,b=%.3g)", m.lambda, m.mu, m.a, m.b)
}

// Params implements core.Mechanism.
func (m *Mechanism) Params() core.Params { return m.params }

// Lambda returns the quadratic-term scale.
func (m *Mechanism) Lambda() float64 { return m.lambda }

// Mu returns the contribution cap simulated by the RCT.
func (m *Mechanism) Mu() float64 { return m.mu }

// A returns the geometric decay parameter.
func (m *Mechanism) A() float64 { return m.a }

// B returns the bubble fraction.
func (m *Mechanism) B() float64 { return m.b }

// NodeRewards computes R'(w) for every node w of an already-transformed
// reward computation tree:
//
//	R'(w) = (lambda/mu) * C'(w) * sum_{x in T'_w} a^dep_w(x) * b * C'(x)
//	        + phi * C'(w).
//
// The weighted subtree sum S(w) = C'(w) + a * sum_children S is computed
// bottom-up in O(n), as in the geometric mechanism.
func (m *Mechanism) NodeRewards(r *RCT) core.Rewards {
	t := r.T
	s := make([]float64, t.Len())
	for id := t.Len() - 1; id >= 1; id-- {
		w := tree.NodeID(id)
		s[w] += t.Contribution(w)
		s[t.Parent(w)] += m.a * s[w]
	}
	out := make(core.Rewards, t.Len())
	scale := m.lambda * m.b / m.mu
	for id := 1; id < t.Len(); id++ {
		w := tree.NodeID(id)
		c := t.Contribution(w)
		out[w] = scale*c*s[w] + m.params.FairShare*c
	}
	return out
}

// Rewards implements core.Mechanism in O(n) through the local form,
// which folds every participant's RCT chain in closed form. It agrees
// with Transform + NodeRewards, summed per chain, up to floating-point
// rounding.
func (m *Mechanism) Rewards(t *tree.Tree) (core.Rewards, error) {
	return m.RewardsInto(t, nil)
}

// RewardsInto implements core.IntoMechanism with zero allocations,
// through the local form.
func (m *Mechanism) RewardsInto(t *tree.Tree, buf core.Rewards) (core.Rewards, error) {
	return core.EvalLocal(m, t, buf)
}

// Local implements core.Mechanism: the mechanism is its own local form.
//
// Participant u's RCT chain has N = ChainLength(C(u), mu) nodes: the
// head carries h = C(u) - (N-1)*mu, the N-1 others carry mu, and the
// heads of u's children's chains hang below the tail. With
// X = sum_{children v} G(v) and g = sum_{j=1}^{N-1} a^j, the weighted
// RCT sums fold in closed form:
//
//	G(u) = S(head_u) = h + mu*g + a^N * X
//	sum_{i>=2} S(m_i) = mu*((N-1) - g)/(1-a) + g*X
//	R(u) = (lambda*b/mu) * (h*G(u) + mu*sum_{i>=2} S(m_i)) + phi*C(u)
//
// so A(u) = X, and G and R cost O(1) per node: the terms that depend on
// N alone are tabulated (see chainConst).
func (m *Mechanism) Local() core.Local { return m }

// Start implements core.Local: A(u) = X sums the children's G only.
func (m *Mechanism) Start(*tree.Tree, tree.NodeID) float64 { return 0 }

// Term implements core.Local: G(k), the weighted RCT sum at the head of
// k's chain.
func (m *Mechanism) Term(t *tree.Tree, agg []float64, k tree.NodeID) float64 {
	_, _, head := m.chain(t.Contribution(k), agg[k])
	return head
}

// Reward implements core.Local: R(u) from C(u) and X = A(u).
func (m *Mechanism) Reward(t *tree.Tree, agg []float64, u tree.NodeID, _ float64) float64 {
	c, x := t.Contribution(u), agg[u]
	k, h, head := m.chain(c, x)
	return m.lambda*m.b/m.mu*(h*head+m.mu*(k.rest+k.g*x)) + m.params.FairShare*c
}

// UsesTotal implements core.Local.
func (m *Mechanism) UsesTotal() bool { return false }

// chainConst is the part of a chain's closed form that depends on its
// length N alone.
type chainConst struct {
	aN   float64 // a^N
	g    float64 // sum_{j=1}^{N-1} a^j
	rest float64 // mu*((N-1) - g)/(1-a), sum_{i>=2} S(m_i) at X = 0
}

func (m *Mechanism) chainConst(n float64) chainConst {
	// A length past MaxInt keeps a^MaxInt, which on 64-bit platforms
	// has already underflowed to 0 for every a <= 1 - 2^-53.
	e := math.MaxInt
	if n < math.MaxInt {
		e = int(n)
	}
	aN := powInt(m.a, e)
	g := (m.a - aN) / (1 - m.a)
	return chainConst{aN: aN, g: g, rest: m.mu * ((n - 1) - g) / (1 - m.a)}
}

// chain folds the chain of a participant with contribution c whose
// children's heads sum to x: it returns the chain's length constants,
// its head's contribution h = C(u) - (N-1)*mu, and G(u).
//
// N stays a float, so every finite c has a chain. On a long chain the
// head is clamped to [0, mu]: once c/mu passes 2^53 an ulp of c exceeds
// mu, so rounding can push h far outside, and a negative head would
// carry a negative G(u) up to the ancestors. On a tabulated chain the
// rounding is a few ulps of c and is left as the RCT has it.
func (m *Mechanism) chain(c, x float64) (k chainConst, h, head float64) {
	n := 1.0
	if c > 0 {
		n = math.Ceil(c / m.mu)
	}
	if n < float64(len(m.short)) {
		k = m.short[int(n)]
		h = c - (n-1)*m.mu
	} else {
		k = m.chainConst(n)
		h = min(max(c-(n-1)*m.mu, 0), m.mu)
	}
	return k, h, h + m.mu*k.g + k.aN*x
}

// powInt returns x^n for n >= 0 by repeated squaring: log2(n) products,
// where math.Pow would dominate a per-node fold.
func powInt(x float64, n int) float64 {
	p := 1.0
	for ; n > 0; n >>= 1 {
		if n&1 == 1 {
			p *= x
		}
		x *= x
	}
	return p
}

// Preliminary is the budget-violating quadratic mechanism of Algorithm 3,
// kept for the Sect. 5 narrative and for tests demonstrating why the RCT
// construction is necessary:
//
//	R(u) = C(u) * sum_{v in T_u} a^dep_u(v) * b * C(v).
//
// It satisfies the USA-achieving quadratic structure but exceeds any
// linear budget once contributions grow, so it is NOT a core.Mechanism.
type Preliminary struct {
	// A is the geometric decay, B the bubble fraction.
	A, B float64
}

// Rewards evaluates Algorithm 3 on t.
func (p Preliminary) Rewards(t *tree.Tree) core.Rewards {
	s := make([]float64, t.Len())
	for id := t.Len() - 1; id >= 1; id-- {
		u := tree.NodeID(id)
		s[u] += t.Contribution(u)
		s[t.Parent(u)] += p.A * s[u]
	}
	out := make(core.Rewards, t.Len())
	for id := 1; id < t.Len(); id++ {
		u := tree.NodeID(id)
		out[u] = t.Contribution(u) * p.B * s[u]
	}
	return out
}
