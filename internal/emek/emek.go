// Package emek implements a reconstruction of the split-proof
// multi-level-marketing mechanism of Emek, Karidi, Tennenholtz and Zohar
// (EC 2011), which the paper reviews in Sect. 4.3: rewards are computed
// over a DEEPEST BINARY SUBTREE of the referral tree rather than over the
// tree itself, which buys Sybil resilience in the unit-price model but —
// as the paper points out — breaks the basic Continuing Solicitation
// Incentive: "depending on the number of direct children it has, a node
// may no longer have an incentive to directly solicit additional
// children."
//
// Reconstruction (documented in DESIGN.md): every node keeps at most two
// of its children — those rooting the tallest binary subtrees, ties
// broken by join order — and the geometric bubble-up runs only along the
// kept edges. Contributions of pruned branches still earn their own
// subtree's rewards but never reach the pruning ancestor, which is
// exactly the CSI failure mode the paper describes. Only this property
// profile is load-bearing for the paper's argument.
package emek

import (
	"fmt"
	"sort"
	"sync"

	"incentivetree/internal/core"
	"incentivetree/internal/tree"
)

// Mechanism is the reconstructed binary-subtree mechanism. Construct with
// New.
type Mechanism struct {
	params core.Params
	a, b   float64
}

// New validates the same parameter regime as the Geometric mechanism
// (0 < a < 1, phi <= b <= (1-a)*Phi): the binary restriction only prunes
// bubble-up paths, so the geometric budget argument carries over.
func New(p core.Params, a, b float64) (*Mechanism, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if !(a > 0 && a < 1) {
		return nil, fmt.Errorf("%w: emek a = %v, need 0 < a < 1", core.ErrBadParams, a)
	}
	if !(b > 0 && b >= p.FairShare && b <= (1-a)*p.Phi) {
		return nil, fmt.Errorf("%w: emek b = %v, need phi <= b <= (1-a)*Phi", core.ErrBadParams, b)
	}
	return &Mechanism{params: p, a: a, b: b}, nil
}

// Default returns the instance used by the experiments (same decay as
// the default Geometric mechanism, for comparability).
func Default(p core.Params) (*Mechanism, error) {
	const a = 1.0 / 3.0
	return New(p, a, (1-a)*p.Phi)
}

// Name implements core.Mechanism.
func (m *Mechanism) Name() string {
	return fmt.Sprintf("Emek-Binary(a=%.3g,b=%.3g)", m.a, m.b)
}

// Params implements core.Mechanism.
func (m *Mechanism) Params() core.Params { return m.params }

// Local implements core.Mechanism. The deepest binary subtree is chosen
// globally, so the mechanism has no local form (and itreed does not
// serve it).
func (m *Mechanism) Local() core.Local { return nil }

// BinaryChildren returns, for every node, the at-most-two children kept
// in the deepest binary subtree: the children rooting the tallest binary
// subtrees (ties broken by join order). Exported for tests and for the
// Sect. 4.3 experiment.
func BinaryChildren(t *tree.Tree) [][]tree.NodeID {
	height := make([]int, t.Len())
	kept := make([][]tree.NodeID, t.Len())
	// Reverse id order is bottom-up (ids are topological).
	for id := t.Len() - 1; id >= 0; id-- {
		u := tree.NodeID(id)
		kids := append([]tree.NodeID(nil), t.Children(u)...)
		sort.SliceStable(kids, func(i, j int) bool {
			if height[kids[i]] != height[kids[j]] {
				return height[kids[i]] > height[kids[j]]
			}
			return kids[i] < kids[j]
		})
		if len(kids) > 2 {
			kids = kids[:2]
		}
		kept[u] = kids
		h := 0
		for _, k := range kids {
			if height[k]+1 > h {
				h = height[k] + 1
			}
		}
		height[u] = h
	}
	return kept
}

// Rewards implements core.Mechanism: geometric bubble-up restricted to
// the deepest binary subtree's edges.
func (m *Mechanism) Rewards(t *tree.Tree) (core.Rewards, error) {
	return m.RewardsInto(t, nil)
}

// evalScratch holds the per-node binary-subtree heights between
// evaluations; pooled because evaluations are short and concurrent.
type evalScratch struct {
	height []int
}

var scratchPool = sync.Pool{
	New: func() any { return new(evalScratch) },
}

// RewardsInto implements core.IntoMechanism. A single bottom-up pass
// selects each node's two tallest children by linear scan — the same pair,
// folded in the same (height desc, join order) sequence, as
// BinaryChildren's sorted slices — and accumulates the weighted sums
// directly in buf, so steady-state evaluation allocates nothing.
func (m *Mechanism) RewardsInto(t *tree.Tree, buf core.Rewards) (core.Rewards, error) {
	if err := t.Validate(); err != nil {
		return nil, err
	}
	n := t.Len()
	sc := scratchPool.Get().(*evalScratch)
	defer scratchPool.Put(sc)
	if cap(sc.height) < n {
		sc.height = make([]int, n)
	}
	height := sc.height[:n]
	s := core.ResizeRewards(buf, n)
	// Ids are topological, so children's sums and heights are final when
	// their parent is reached. The sibling chain ascends in id (= join)
	// order, so strict comparisons reproduce the sort's tie-break exactly.
	for id := n - 1; id >= 0; id-- {
		u := tree.NodeID(id)
		b1, b2 := tree.None, tree.None
		for k := t.FirstChild(u); k != tree.None; k = t.NextSibling(k) {
			if b1 == tree.None || height[k] > height[b1] {
				b1, b2 = k, b1
			} else if b2 == tree.None || height[k] > height[b2] {
				b2 = k
			}
		}
		if id >= 1 {
			s[u] += t.Contribution(u)
		}
		if b1 != tree.None {
			s[u] += m.a * s[b1]
			height[u] = height[b1] + 1
		} else {
			height[u] = 0
		}
		if b2 != tree.None {
			s[u] += m.a * s[b2]
		}
	}
	for id := 1; id < n; id++ {
		s[id] = m.b * s[id]
	}
	s[tree.Root] = 0
	return s, nil
}
