package audit

import (
	"testing"

	"incentivetree/internal/tree"
)

// buildChain grows a single-child chain of n identities under parent,
// contributing parts[i] (or 1.0 when parts is nil), and returns the ids
// head-first.
func buildChain(t *tree.Tree, parent tree.NodeID, n int, parts []float64) []tree.NodeID {
	ids := make([]tree.NodeID, n)
	for i := range ids {
		c := 1.0
		if parts != nil {
			c = parts[i]
		}
		parent = t.MustAdd(parent, c)
		ids[i] = parent
	}
	return ids
}

func TestChainHead(t *testing.T) {
	tr := tree.New()
	sponsor := tr.MustAdd(tree.Root, 2)
	tr.MustAdd(sponsor, 3) // second child: the chain below cannot absorb sponsor
	ids := buildChain(tr, sponsor, 5, nil)

	if !headsChain(tr, sponsor) {
		t.Fatal("a child of the root does not head a chain")
	}
	if !headsChain(tr, ids[0]) {
		t.Fatal("a child of a branching sponsor does not head a chain")
	}
	for _, id := range ids[1:] {
		if headsChain(tr, id) {
			t.Fatalf("mid-chain node %d heads a chain", id)
		}
	}
	// Without the branch the sponsor has one child, so its chain runs
	// through it: the sponsor heads, its lone child does not.
	tr2 := tree.New()
	lone := tr2.MustAdd(tree.Root, 2)
	ids2 := buildChain(tr2, lone, 3, nil)
	if !headsChain(tr2, lone) || headsChain(tr2, ids2[0]) {
		t.Fatalf("lone sponsor: heads(%d) = %v, heads(%d) = %v, want true, false",
			lone, headsChain(tr2, lone), ids2[0], headsChain(tr2, ids2[0]))
	}
}

func TestDetectEpsilonChain(t *testing.T) {
	tr := tree.New()
	sponsor := tr.MustAdd(tree.Root, 2)
	tr.MustAdd(sponsor, 3)
	ids := buildChain(tr, sponsor, 4, []float64{0.7, 0.7, 0.7, 0.7})

	d, ok := detectChain(tr, ids[0])
	if !ok {
		t.Fatal("equal-block chain not detected")
	}
	if d.shape != ShapeEpsilonChain || d.severity != severityEpsilonChain {
		t.Fatalf("shape = %q severity %v, want ε-chain", d.shape, d.severity)
	}
	if len(d.members) != 4 || d.root != ids[0] {
		t.Fatalf("members %v root %d, want all four anchored at head", d.members, d.root)
	}

	// Head may hold at most one block: a heavier head is a plain chain.
	tr.SetContribution(ids[0], 1.5)
	d, ok = detectChain(tr, ids[0])
	if !ok || d.shape != ShapeChain {
		t.Fatalf("heavy-head chain: shape %q ok=%v, want plain chain", d.shape, ok)
	}
}

func TestDetectChainDepthGate(t *testing.T) {
	tr := tree.New()
	sponsor := tr.MustAdd(tree.Root, 2)
	tr.MustAdd(sponsor, 3)
	ids := buildChain(tr, sponsor, 3, []float64{0.5, 1.7, 2.3})
	if _, ok := detectChain(tr, ids[0]); ok {
		t.Fatal("depth-3 chain detected below minChainDepth=4")
	}
	buildChain(tr, ids[2], 1, []float64{0.9}) // now depth 4
	d, ok := detectChain(tr, ids[0])
	if !ok || d.shape != ShapeChain || d.severity != severityChain {
		t.Fatalf("irregular depth-4 chain: %+v ok=%v, want chain/0.8", d, ok)
	}
}

func TestDetectStar(t *testing.T) {
	tr := tree.New()
	center := tr.MustAdd(tree.Root, 2)
	var kids []tree.NodeID
	for i := 0; i < 7; i++ {
		kids = append(kids, tr.MustAdd(center, 1.25))
	}
	d, ok := detectStar(tr, center)
	if !ok || d.shape != ShapeStar || len(d.members) != 7 {
		t.Fatalf("star burst: %+v ok=%v, want 7-member star", d, ok)
	}

	// One member recruiting is the attack's re-attachment point; two
	// recruiting members look organic.
	tr.MustAdd(kids[0], 0.4)
	if _, ok := detectStar(tr, center); !ok {
		t.Fatal("star with one recruiting member rejected")
	}
	tr.MustAdd(kids[1], 0.4)
	if _, ok := detectStar(tr, center); ok {
		t.Fatal("star with two recruiting members detected")
	}
}

func TestDetectStarIgnoresZeroAndUnequal(t *testing.T) {
	tr := tree.New()
	center := tr.MustAdd(tree.Root, 2)
	// Five equal contributors plus fresh zero-contribution joins: the
	// zeros must not pad the burst over the fan-out gate.
	for i := 0; i < 5; i++ {
		tr.MustAdd(center, 1.25)
	}
	for i := 0; i < 4; i++ {
		tr.MustAdd(center, 0)
	}
	if _, ok := detectStar(tr, center); ok {
		t.Fatal("zero-contribution joins counted toward a star burst")
	}
	// Unequal positive contributions never group either.
	tr2 := tree.New()
	c2 := tr2.MustAdd(tree.Root, 2)
	for i := 0; i < 8; i++ {
		tr2.MustAdd(c2, 0.5+0.31*float64(i))
	}
	if _, ok := detectStar(tr2, c2); ok {
		t.Fatal("unequal siblings detected as a star")
	}
}

func TestDetectShapesAnchorsAtChainHeadOnly(t *testing.T) {
	tr := tree.New()
	sponsor := tr.MustAdd(tree.Root, 2)
	tr.MustAdd(sponsor, 3)
	ids := buildChain(tr, sponsor, 5, nil)
	if ds := detectShapes(tr, ids[2]); len(ds) != 0 {
		t.Fatalf("mid-chain node produced detections %+v", ds)
	}
	ds := detectShapes(tr, ids[0])
	if len(ds) != 1 || ds[0].shape != ShapeEpsilonChain {
		t.Fatalf("head detections %+v, want one ε-chain", ds)
	}
}
