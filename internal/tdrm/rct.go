// Package tdrm implements the Topology-Dependent Reward Mechanism of
// Sect. 5 of the paper, which achieves every desirable property except
// UGSA (Theorem 4).
//
// TDRM avoids the Sybil profitability of the Geometric mechanism by
// making a node's reward quadratic in its own contribution, and then
// restores the budget constraint by simulating a contribution cap mu:
// every participant with contribution exceeding mu is split by the
// mechanism itself into a chain of nodes in a Reward Computation Tree
// (RCT) — an epsilon-chain whose head carries the remainder and whose
// other nodes carry exactly mu. Because the appendix lemmas show an
// epsilon-chain is the participant's best possible Sybil split, the
// mechanism pre-empts the attack: no participant benefits from splitting
// manually (USA holds).
package tdrm

import (
	"fmt"
	"math"

	"incentivetree/internal/core"
	"incentivetree/internal/tree"
)

// RCT is a Reward Computation Tree: the transformed tree T' together with
// the correspondence between participants of the referral tree T and
// their chains in T'.
//
// Orientation (see DESIGN.md): a participant's chain runs from head
// (carrying the contribution remainder C(u) - (N_u-1)*mu) down to tail
// (carrying exactly mu); the chains of u's children attach below u's
// tail, and u's head attaches below the tail of u's parent's chain. This
// is the unique reading of Algorithm 4 consistent with the paper's
// epsilon-chain lemmas and with the appendix bound
// R'(m^u_{N_u}) >= l * a^2 * b * lambda * epsilon.
type RCT struct {
	// T is the reward computation tree T'. Its contributions are the
	// chain-node contributions C'.
	T *tree.Tree
	// Chains maps each participant of the referral tree to its chain in
	// T', head first.
	Chains map[tree.NodeID][]tree.NodeID
	// Origin maps each RCT node back to its participant in the referral
	// tree; Origin[tree.Root] == tree.Root.
	Origin []tree.NodeID
}

// ChainLength returns N_u = ceil(C/mu), with a minimum of 1 so that
// zero-contribution participants still occupy a node (the paper leaves
// C(u) = 0 implicit; a zero-length chain would disconnect u's children).
// A length past math.MaxInt saturates there.
func ChainLength(c, mu float64) int {
	if c <= 0 {
		return 1
	}
	n := math.Ceil(c / mu)
	if n >= math.MaxInt {
		return math.MaxInt
	}
	return int(n)
}

// Transform builds the reward computation tree of t with contribution cap
// mu (Algorithm 4, transformation step).
func Transform(t *tree.Tree, mu float64) (*RCT, error) {
	if !(mu > 0) {
		return nil, fmt.Errorf("%w: mu = %v, need mu > 0", core.ErrBadParams, mu)
	}
	if err := t.Validate(); err != nil {
		return nil, err
	}
	rct := &RCT{
		T:      tree.New(),
		Chains: make(map[tree.NodeID][]tree.NodeID, t.Len()),
		Origin: []tree.NodeID{tree.Root},
	}
	// tail[u] is the RCT id of the tail of u's chain, i.e. the node that
	// u's children's chains attach to. The imaginary root maps to itself.
	tail := make([]tree.NodeID, t.Len())
	tail[tree.Root] = tree.Root
	rct.Chains[tree.Root] = []tree.NodeID{tree.Root}
	// Referral-tree ids are topological, so a forward scan visits parents
	// before children.
	for id := 1; id < t.Len(); id++ {
		u := tree.NodeID(id)
		c := t.Contribution(u)
		n := ChainLength(c, mu)
		head := c - float64(n-1)*mu
		parent := tail[t.Parent(u)]
		chain := make([]tree.NodeID, 0, n)
		for i := 0; i < n; i++ {
			cc := mu
			if i == 0 {
				cc = head
			}
			w, err := rct.T.Add(parent, cc)
			if err != nil {
				return nil, fmt.Errorf("tdrm: transform: %w", err)
			}
			if err := rct.T.SetLabel(w, fmt.Sprintf("%s/%d", t.Label(u), i+1)); err != nil {
				return nil, err
			}
			rct.Origin = append(rct.Origin, u)
			chain = append(chain, w)
			parent = w
		}
		rct.Chains[u] = chain
		tail[u] = chain[n-1]
	}
	return rct, nil
}

// Head returns the RCT id of u's chain head.
func (r *RCT) Head(u tree.NodeID) tree.NodeID { return r.Chains[u][0] }

// Tail returns the RCT id of u's chain tail.
func (r *RCT) Tail(u tree.NodeID) tree.NodeID {
	ch := r.Chains[u]
	return ch[len(ch)-1]
}

// IsEpsilonChain reports whether u's chain is an epsilon-chain: every node
// except possibly the head carries exactly mu.
func (r *RCT) IsEpsilonChain(u tree.NodeID, mu float64) bool {
	ch, ok := r.Chains[u]
	if !ok {
		return false
	}
	for i, w := range ch {
		if i == 0 {
			continue
		}
		if r.T.Contribution(w) != mu {
			return false
		}
	}
	return true
}

// Validate checks the structural invariants of the transformation:
// per-participant contribution conservation, epsilon-chain shape, and
// chain connectivity.
func (r *RCT) Validate(t *tree.Tree, mu float64) error {
	if err := r.T.Validate(); err != nil {
		return fmt.Errorf("tdrm: rct tree invalid: %w", err)
	}
	if len(r.Origin) != r.T.Len() {
		return fmt.Errorf("tdrm: %d origins for %d rct nodes", len(r.Origin), r.T.Len())
	}
	for _, u := range t.Nodes() {
		ch, ok := r.Chains[u]
		if !ok || len(ch) == 0 {
			return fmt.Errorf("tdrm: participant %d has no chain", u)
		}
		sum := 0.0
		for i, w := range ch {
			sum += r.T.Contribution(w)
			if r.Origin[w] != u {
				return fmt.Errorf("tdrm: rct node %d origin mismatch", w)
			}
			if i > 0 {
				if got := r.T.Parent(w); got != ch[i-1] {
					return fmt.Errorf("tdrm: chain of %d broken at position %d", u, i)
				}
				if r.T.Contribution(w) != mu {
					return fmt.Errorf("tdrm: non-head chain node of %d carries %v != mu",
						u, r.T.Contribution(w))
				}
			}
		}
		if c := t.Contribution(u); math.Abs(sum-c) > 1e-9*(1+c) {
			return fmt.Errorf("tdrm: chain of %d sums to %v, participant contributes %v", u, sum, c)
		}
		if len(ch) != ChainLength(t.Contribution(u), mu) {
			return fmt.Errorf("tdrm: chain of %d has length %d, want %d",
				u, len(ch), ChainLength(t.Contribution(u), mu))
		}
	}
	return nil
}
