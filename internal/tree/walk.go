package tree

// Walk visits every node of the subtree T_u rooted at u in depth-first
// preorder, calling fn for each visited node. Walking stops early if fn
// returns false.
func (t *Tree) Walk(u NodeID, fn func(NodeID) bool) {
	if !t.Exists(u) {
		return
	}
	stack := []NodeID{u}
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if !fn(n) {
			return
		}
		// Push children in reverse join order so they pop in join order.
		for k := t.links[n].last; k != None; k = t.links[k].prev {
			stack = append(stack, k)
		}
	}
}

// WalkDepth is Walk with the depth relative to u (dep_u(v)) supplied to fn.
func (t *Tree) WalkDepth(u NodeID, fn func(NodeID, int) bool) {
	if !t.Exists(u) {
		return
	}
	type frame struct {
		id    NodeID
		depth int
	}
	stack := []frame{{u, 0}}
	for len(stack) > 0 {
		f := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if !fn(f.id, f.depth) {
			return
		}
		for k := t.links[f.id].last; k != None; k = t.links[k].prev {
			stack = append(stack, frame{k, f.depth + 1})
		}
	}
}

// Subtree returns the node ids of T_u in preorder, starting with u itself.
func (t *Tree) Subtree(u NodeID) []NodeID {
	var out []NodeID
	t.Walk(u, func(n NodeID) bool {
		out = append(out, n)
		return true
	})
	return out
}

// SubtreeSize returns |T_u|.
func (t *Tree) SubtreeSize(u NodeID) int {
	n := 0
	t.Walk(u, func(NodeID) bool {
		n++
		return true
	})
	return n
}

// SubtreeSum returns C(T_u) = sum of contributions over the subtree rooted
// at u, including u itself.
func (t *Tree) SubtreeSum(u NodeID) float64 {
	s := 0.0
	t.Walk(u, func(n NodeID) bool {
		s += t.contrib[n]
		return true
	})
	return s
}

// DescendantSum returns y_u = C(T_u \ {u}), the paper's notation for the
// total contribution of u's proper descendants.
func (t *Tree) DescendantSum(u NodeID) float64 {
	if !t.Exists(u) {
		return 0
	}
	return t.SubtreeSum(u) - t.contrib[u]
}

// Total returns C(T), the total contribution of all participants.
// Root's subtree is the whole tree, so this is a flat allocation-free
// sum in id order (unlike SubtreeSum's preorder walk).
func (t *Tree) Total() float64 {
	s := 0.0
	for _, c := range t.contrib {
		s += c
	}
	return s
}

// SubtreeSums computes C(T_u) for every node in one bottom-up pass.
// The returned slice is indexed by NodeID.
func (t *Tree) SubtreeSums() []float64 {
	n := t.Len()
	sums := make([]float64, n)
	copy(sums, t.contrib)
	// IDs are topological (parent < child), so a reverse scan is bottom-up.
	for id := n - 1; id > 0; id-- {
		sums[t.parent[id]] += sums[id]
	}
	return sums
}

// Depths computes dep_r(u) for every node in one pass.
func (t *Tree) Depths() []int {
	d := make([]int, t.Len())
	for id := 1; id < t.Len(); id++ {
		d[id] = d[t.parent[id]] + 1
	}
	return d
}

// Ancestors returns the path from u's parent up to (and including) the
// imaginary root.
func (t *Tree) Ancestors(u NodeID) []NodeID {
	if !t.Exists(u) || u == Root {
		return nil
	}
	var out []NodeID
	for p := t.parent[u]; p != None; p = t.parent[p] {
		out = append(out, p)
	}
	return out
}

// Leaves returns all leaf nodes of T_u in preorder.
func (t *Tree) Leaves(u NodeID) []NodeID {
	var out []NodeID
	t.Walk(u, func(n NodeID) bool {
		if t.links[n].nchild == 0 {
			out = append(out, n)
		}
		return true
	})
	return out
}

// Nodes returns all real participants (every node except the imaginary
// root) in id order.
func (t *Tree) Nodes() []NodeID {
	out := make([]NodeID, 0, t.Len()-1)
	for id := 1; id < t.Len(); id++ {
		out = append(out, NodeID(id))
	}
	return out
}
