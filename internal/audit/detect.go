package audit

import (
	"math"
	"sort"

	"incentivetree/internal/tree"
)

// The reportable attack shapes, in the paper's Theorem-4 taxonomy.
const (
	// ShapeEpsilonChain is a single-child chain whose tail blocks carry
	// exactly equal contributions with the head holding at most one more
	// block — the TDRM-style ε-chain, the strongest signature.
	ShapeEpsilonChain = "epsilon-chain"
	// ShapeChain is a deep single-child chain with irregular
	// contributions — structurally attack-shaped but weaker evidence.
	ShapeChain = "chain"
	// ShapeStar is a burst of equal-contribution siblings under one
	// sponsor, at most one of them with recruits of its own.
	ShapeStar = "star"
)

// Shape severities: the initial evidence weight of one detection.
const (
	severityEpsilonChain = 1.0
	severityStar         = 0.9
	severityChain        = 0.8
)

// shapeSeverity returns a shape's base severity — what the
// auto-quarantine gate compares against, deliberately ignoring probe
// boosts (see the package comment).
func shapeSeverity(shape string) float64 {
	switch shape {
	case ShapeEpsilonChain:
		return severityEpsilonChain
	case ShapeStar:
		return severityStar
	default:
		return severityChain
	}
}

// detection is one raw shape match, before hysteresis.
type detection struct {
	shape    string
	severity float64
	// root anchors the detection: chain head, or star center.
	root tree.NodeID
	// members are the suspected identities in topological (id) order.
	// For chains this includes root; for stars the root (sponsor) is
	// not a member.
	members   []tree.NodeID
	probeGain float64
}

// rootName returns the stable report/score key for the detection: the
// root's label, except for a star under the tree root, which anchors at
// its first member (the tree root is not a participant).
func (d detection) rootName(t *tree.Tree) string {
	if d.root == tree.Root {
		return t.Label(d.members[0])
	}
	return t.Label(d.root)
}

// memberNames resolves the member ids to participant names.
func (d detection) memberNames(t *tree.Tree) []string {
	names := make([]string, len(d.members))
	for i, id := range d.members {
		names[i] = t.Label(id)
	}
	return names
}

// quarantineTargets returns the names AutoQuarantine withholds. Chains
// quarantine the head — subtree masking covers the rest — while stars
// quarantine each member individually: the center is the sponsor, which
// may well be an honest participant the attacker joined under.
func (d detection) quarantineTargets(t *tree.Tree) []string {
	if d.shape == ShapeStar {
		return d.memberNames(t)
	}
	return []string{t.Label(d.root)}
}

// headsChain reports whether u tops its maximal single-child chain:
// its parent is the tree root or has other children besides u.
func headsChain(t *tree.Tree, u tree.NodeID) bool {
	p := t.Parent(u)
	return p == tree.Root || t.NumChildren(p) != 1
}

// detectShapes runs every detector anchored at id, returning zero, one,
// or two detections (a node can head a chain and center a star).
func detectShapes(t *tree.Tree, id tree.NodeID) []detection {
	var out []detection
	if id != tree.Root && headsChain(t, id) {
		if d, ok := detectChain(t, id); ok {
			out = append(out, d)
		}
	}
	if d, ok := detectStar(t, id); ok {
		out = append(out, d)
	}
	return out
}

// detectChain matches the maximal single-child chain headed at head:
// nodes v1..vk where each of v1..v(k-1) has exactly one child. Chains
// of minChainDepth or more are suspicious; equal tail blocks with the
// head holding at most one block (the TDRM reward-tree split) upgrade
// the match to an ε-chain.
func detectChain(t *tree.Tree, head tree.NodeID) (detection, bool) {
	members := []tree.NodeID{head}
	cur := head
	for t.NumChildren(cur) == 1 {
		cur = t.FirstChild(cur)
		members = append(members, cur)
	}
	if len(members) < minChainDepth {
		return detection{}, false
	}
	d := detection{shape: ShapeChain, severity: severityChain, root: head, members: members}
	if isEpsilonSplit(t, members) {
		d.shape = ShapeEpsilonChain
		d.severity = severityEpsilonChain
	}
	return d, true
}

// isEpsilonSplit reports whether the chain's contributions look like an
// equal-block split: all tail blocks equal (within tolerance) and
// positive, and the head carrying no more than one block.
func isEpsilonSplit(t *tree.Tree, members []tree.NodeID) bool {
	if len(members) < 2 {
		return false
	}
	block := t.Contribution(members[1])
	if block <= 0 {
		return false
	}
	for _, id := range members[2:] {
		if !relEqual(t.Contribution(id), block) {
			return false
		}
	}
	head := t.Contribution(members[0])
	return head <= block*(1+tolerance)
}

// detectStar matches a burst of equal-contribution children under
// center, at most one of which has children of its own (the attack
// attaches the real solicitees under one identity). Zero-contribution
// children never group — freshly joined honest recruits all sit at 0.
func detectStar(t *tree.Tree, center tree.NodeID) (detection, bool) {
	if t.NumChildren(center) < minStarFanout {
		return detection{}, false
	}
	type kc struct {
		id tree.NodeID
		c  float64
	}
	group := make([]kc, 0, t.NumChildren(center))
	for k := t.FirstChild(center); k != tree.None; k = t.NextSibling(k) {
		if c := t.Contribution(k); c > 0 {
			group = append(group, kc{k, c})
		}
	}
	if len(group) < minStarFanout {
		return detection{}, false
	}
	sort.Slice(group, func(i, j int) bool {
		if group[i].c != group[j].c {
			return group[i].c < group[j].c
		}
		return group[i].id < group[j].id
	})
	// Longest run of equal contributions.
	bestLo, bestHi, lo := 0, 0, 0
	for hi := 1; hi <= len(group); hi++ {
		if hi < len(group) && relEqual(group[hi].c, group[lo].c) {
			continue
		}
		if hi-lo > bestHi-bestLo {
			bestLo, bestHi = lo, hi
		}
		lo = hi
	}
	if bestHi-bestLo < minStarFanout {
		return detection{}, false
	}
	run := group[bestLo:bestHi]
	withKids := 0
	for _, m := range run {
		if t.NumChildren(m.id) > 0 {
			withKids++
		}
	}
	if withKids > 1 {
		return detection{}, false
	}
	members := make([]tree.NodeID, len(run))
	for i, m := range run {
		members[i] = m.id
	}
	sort.Slice(members, func(i, j int) bool { return members[i] < members[j] })
	return detection{shape: ShapeStar, severity: severityStar, root: center, members: members}, true
}

// relEqual compares with relative tolerance (absolute near zero).
func relEqual(a, b float64) bool {
	diff := math.Abs(a - b)
	if diff <= tolerance {
		return true
	}
	return diff <= tolerance*math.Max(math.Abs(a), math.Abs(b))
}
