// Package core defines the Incentive Tree mechanism abstraction from the
// paper's model section: a reward mechanism is a function taking a weighted
// referral tree T and computing a non-negative reward R(u) for every
// participant, subject to the budget constraint R(T) <= Phi * C(T).
//
// Mechanism implementations live in sibling packages (geometric, lottree,
// tdrm, cdrm); the executable versions of the paper's desirable properties
// live in internal/properties.
package core

import (
	"errors"
	"fmt"

	"incentivetree/internal/numeric"
	"incentivetree/internal/tree"
)

// Params holds the two global parameters every mechanism shares.
type Params struct {
	// Phi is the budget fraction: the system administrator pays out at
	// most Phi * C(T) in total reward. 0 < Phi <= 1.
	Phi float64
	// FairShare is the paper's lower-case phi: the phi-RPC fairness floor
	// demanding R(u) >= FairShare * C(u) for every participant.
	// 0 <= FairShare <= Phi.
	FairShare float64
}

// ErrBadParams reports an invalid parameterization at mechanism
// construction time.
var ErrBadParams = errors.New("core: invalid mechanism parameters")

// Validate checks the admissible region for the shared parameters.
func (p Params) Validate() error {
	if !(p.Phi > 0 && p.Phi <= 1) {
		return fmt.Errorf("%w: Phi = %v, need 0 < Phi <= 1", ErrBadParams, p.Phi)
	}
	if !(p.FairShare >= 0 && p.FairShare <= p.Phi) {
		return fmt.Errorf("%w: FairShare = %v, need 0 <= FairShare <= Phi (%v)",
			ErrBadParams, p.FairShare, p.Phi)
	}
	return nil
}

// DefaultParams is the parameterization used throughout the experiments:
// the administrator returns at most half of the contribution as reward and
// guarantees every participant at least 5% of its own contribution back.
func DefaultParams() Params { return Params{Phi: 0.5, FairShare: 0.05} }

// Rewards maps every node of a tree (by NodeID) to its reward. The
// imaginary root's entry is always zero.
type Rewards []float64

// Of returns R(u), or 0 for ids outside the tree.
func (r Rewards) Of(id tree.NodeID) float64 {
	if id < 0 || int(id) >= len(r) {
		return 0
	}
	return r[id]
}

// Total returns R(T), the sum of all rewards, using compensated summation.
func (r Rewards) Total() float64 { return numeric.KahanSum(r) }

// Mechanism is an Incentive Tree reward mechanism.
//
// Rewards must be deterministic in the tree: equal trees yield equal
// rewards. Implementations must return an entry for every node and must
// never return negative rewards.
type Mechanism interface {
	// Name identifies the mechanism (including its parameterization)
	// in experiment output.
	Name() string
	// Params returns the shared budget/fairness parameters.
	Params() Params
	// Rewards computes R(u) for every node of t.
	Rewards(t *tree.Tree) (Rewards, error)
	// Local returns the mechanism's local form, or nil when it has
	// none. A server keeps rewards current through it (see Local).
	Local() Local
}

// Local is the local form of a mechanism. Every reward the paper
// defines is a bottom-up recursion over the referral tree: each node u
// carries one aggregate A(u), folded from C(u) and the aggregates of
// u's children, and R(u) is a per-node formula over A(u). A write at v
// changes only the aggregates on v's root path, so a server that keeps
// A(u) for every node re-folds those paths and serves any R(u) without
// evaluating the whole tree.
//
// The fold is Start(u) plus Term(k) of every child k, added in
// descending id order. Fold and FoldAll add exactly those values in
// exactly that order — one node at a time, or in one bottom-up pass —
// so their aggregates agree bit for bit. A mechanism with a local form
// computes Rewards with EvalLocal, so a reward read from maintained
// aggregates equals Rewards bit for bit.
type Local interface {
	// Start returns the value A(u) starts from before any child's term
	// is added: C(u), or 0 when C(u) enters only through the terms and
	// the reward.
	Start(t *tree.Tree, u tree.NodeID) float64
	// Term returns what child k adds to its parent's aggregate. It reads
	// agg only at k.
	Term(t *tree.Tree, agg []float64, k tree.NodeID) float64
	// Reward returns R(u) for a participant u. It reads t and agg only
	// at u and u's children. This subtree locality is what lets a
	// server re-rank only the ids it re-folded: a write at v changes
	// the tree and the aggregates only on v's root path, so only the
	// rewards there move. Reading total, C(T) as t.Total sums it, is
	// the one exception allowed, and UsesTotal declares it.
	Reward(t *tree.Tree, agg []float64, u tree.NodeID, total float64) float64
	// UsesTotal reports whether Reward reads total. When it does, every
	// contribution moves every reward.
	UsesTotal() bool
}

// Fold returns A(u) from the current aggregates of u's children,
// visiting them in descending id order (LastChild, then PrevSibling).
func Fold(l Local, t *tree.Tree, agg []float64, u tree.NodeID) float64 {
	a := l.Start(t, u)
	for k := t.LastChild(u); k != tree.None; k = t.PrevSibling(k) {
		a += l.Term(t, agg, k)
	}
	return a
}

// FoldAll computes A(u) for every participant of t into buf (reusing
// its backing array when capacity allows). It starts every aggregate,
// then scans ids in descending order, adding each node's term to its
// parent: ids are topological, so a node's aggregate is final when the
// scan reaches it, and each parent receives its children's terms in
// descending id order, as Fold adds them. The imaginary root is never
// folded; its entry is zero.
func FoldAll(l Local, t *tree.Tree, buf []float64) []float64 {
	n := t.Len()
	if cap(buf) < n {
		buf = make([]float64, n)
	}
	agg := buf[:n]
	for id := 1; id < n; id++ {
		agg[id] = l.Start(t, tree.NodeID(id))
	}
	parents := t.Parents()
	for id := n - 1; id >= 1; id-- {
		if p := parents[id]; p != tree.Root {
			agg[p] += l.Term(t, agg, tree.NodeID(id))
		}
	}
	agg[tree.Root] = 0
	return agg
}

// EvalLocal is the RewardsInto of a mechanism with local form l: it
// folds every aggregate into buf, then overwrites each entry with R(u)
// in ascending id order. R(u) reads only its own aggregate and its
// children's, whose ids are larger and therefore still intact.
func EvalLocal(l Local, t *tree.Tree, buf Rewards) (Rewards, error) {
	if err := t.Validate(); err != nil {
		return nil, err
	}
	r := Rewards(FoldAll(l, t, buf))
	total := 0.0
	if l.UsesTotal() {
		total = t.Total()
	}
	for id := 1; id < len(r); id++ {
		r[id] = l.Reward(t, r, tree.NodeID(id), total)
	}
	return r, nil
}

// IntoMechanism is the optional allocation-free fast path of a Mechanism:
// RewardsInto computes the same vector as Rewards but writes it into buf
// when buf's capacity allows, so tight evaluation loops (the Sybil attack
// search, property checkers, benchmarks) can reuse one buffer across
// evaluations.
//
// Contract: the returned slice must equal Rewards(t) exactly (same
// floating-point results); it aliases buf whenever cap(buf) >= t.Len();
// buf's previous contents are ignored. Implementations must remain safe
// for concurrent use as long as distinct goroutines pass distinct
// buffers.
type IntoMechanism interface {
	Mechanism
	RewardsInto(t *tree.Tree, buf Rewards) (Rewards, error)
}

// EvalInto evaluates m on t through the RewardsInto fast path when m
// implements IntoMechanism, falling back to plain Rewards (ignoring buf)
// otherwise. Callers keep the returned slice as the buffer for the next
// call.
func EvalInto(m Mechanism, t *tree.Tree, buf Rewards) (Rewards, error) {
	if im, ok := m.(IntoMechanism); ok {
		return im.RewardsInto(t, buf)
	}
	return m.Rewards(t)
}

// ResizeRewards returns buf resized to n zeroed entries, reusing its
// backing array when capacity allows — the shared scratch-sizing helper
// for RewardsInto implementations.
func ResizeRewards(buf Rewards, n int) Rewards {
	if cap(buf) < n {
		return make(Rewards, n)
	}
	buf = buf[:n]
	for i := range buf {
		buf[i] = 0
	}
	return buf
}

// Profit returns P(u) = R(u) - C(u), the multi-level-marketing profit of a
// participant (Sect. 2 of the paper).
func Profit(t *tree.Tree, r Rewards, u tree.NodeID) float64 {
	return r.Of(u) - t.Contribution(u)
}

// Payment returns Pay(u) = C(u) - R(u), the amount a buyer effectively
// pays for its goods.
func Payment(t *tree.Tree, r Rewards, u tree.NodeID) float64 {
	return t.Contribution(u) - r.Of(u)
}

// AuditViolation describes a failed audit of a mechanism's output.
type AuditViolation struct {
	Mechanism string
	Reason    string
}

func (v *AuditViolation) Error() string {
	return fmt.Sprintf("core: audit of %s failed: %s", v.Mechanism, v.Reason)
}

// Audit verifies the model-level contract of a mechanism's output on a
// tree: one entry per node, non-negative rewards, a zero entry for the
// imaginary root, and the budget constraint R(T) <= Phi * C(T).
func Audit(m Mechanism, t *tree.Tree, r Rewards) error {
	if len(r) != t.Len() {
		return &AuditViolation{m.Name(), fmt.Sprintf("%d reward entries for %d nodes", len(r), t.Len())}
	}
	if r.Of(tree.Root) != 0 {
		return &AuditViolation{m.Name(), fmt.Sprintf("imaginary root rewarded %v", r.Of(tree.Root))}
	}
	for id := 1; id < t.Len(); id++ {
		if r[id] < 0 {
			return &AuditViolation{m.Name(), fmt.Sprintf("negative reward %v for node %d", r[id], id)}
		}
	}
	budget := m.Params().Phi * t.Total()
	if total := r.Total(); !numeric.LessOrAlmostEqual(total, budget, numeric.Eps) {
		return &AuditViolation{m.Name(),
			fmt.Sprintf("total reward %v exceeds budget %v (Phi=%v, C(T)=%v)",
				total, budget, m.Params().Phi, t.Total())}
	}
	return nil
}

// RewardsOrPanic is a convenience for examples and benchmarks where the
// tree is known to be valid; it panics on error.
func RewardsOrPanic(m Mechanism, t *tree.Tree) Rewards {
	r, err := m.Rewards(t)
	if err != nil {
		panic(fmt.Sprintf("core: %s.Rewards: %v", m.Name(), err))
	}
	return r
}
