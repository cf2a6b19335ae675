package server

import (
	"cmp"
	"fmt"
	"net/http"
	"slices"
	"strconv"
	"strings"

	"incentivetree/internal/core"
	"incentivetree/internal/tree"
)

// readView is the read side of one committed version: the served
// reward table (quarantined subtrees read zero), the mask that flags
// them (nil when no quarantine is active), and every participant id
// ranked by reward descending, then name ascending. The table reads
// build Participant views only for the rows they return.
//
// A view is used only under s.mu's read lock and only at its own
// version, and the version moves only under the write lock. So once
// the version has moved, no reader holds the previous view, and the
// next build may rewrite its table and mask in place.
type readView struct {
	version uint64
	rewards core.Rewards
	mask    []bool
	ranked  []tree.NodeID
}

// masked reports whether v withholds u's payout.
func (v *readView) masked(u tree.NodeID) bool { return v.mask != nil && v.mask[u] }

// readViewLocked returns the view of the current version, building it
// on the version's first read. A hit is one atomic load; concurrent
// misses on one version build once. Callers hold the read lock, which
// keeps s.version fixed for the whole call and for as long as they use
// the view; the view mutex nests inside it.
//
// A miss re-ranks only what the commits since the previous view moved
// (rerankMovedLocked). R(u) reads only u's subtree, so a commit moves
// only the rewards on the root paths refoldLocked re-folded and
// recorded in s.moved: about five ids per contribution under TDRM,
// CDRM and Geometric. A local form that reads C(T) (L-Luxor,
// L-Pachira) moves every reward on every contribution, and a
// quarantine flip moves a whole subtree, so those, a first build, and
// more recorded ids than an eighth of the participants recompute the
// table and sort the previous ranking plus the joiners
// (rerankAllLocked).
func (s *Server) readViewLocked() *readView {
	if v := s.view.Load(); v != nil && v.version == s.version {
		s.viewHits.Inc()
		return v
	}
	s.viewMu.Lock() //itreevet:ignore lockedcall the caller holds s.mu; viewMu is a second mutex nested inside it that serializes view builds
	defer s.viewMu.Unlock()
	prev := s.view.Load()
	if prev != nil && prev.version == s.version {
		s.viewHits.Inc()
		return prev
	}
	s.viewMisses.Inc()
	var v *readView
	if prev != nil && !s.rerank && !s.local.UsesTotal() {
		v = s.rerankMovedLocked(prev)
	} else {
		v = s.rerankAllLocked(prev)
	}
	v.version = s.version
	s.moved, s.rerank = s.moved[:0], false
	s.view.Store(v)
	return v
}

// rerankAllLocked builds a view from the full served table, sorting
// the previous ranking plus the ids that joined since. Every ranking
// is a permutation of 1..len: a restore drops the view.
func (s *Server) rerankAllLocked(prev *readView) *readView {
	rewards, mask := s.servedRewardsLocked()
	n := s.state.Tree.NumParticipants()
	ranked := make([]tree.NodeID, 0, n)
	if prev != nil {
		ranked = append(ranked, prev.ranked...)
	}
	for u := len(ranked) + 1; u <= n; u++ {
		ranked = append(ranked, tree.NodeID(u))
	}
	slices.SortFunc(ranked, func(a, b tree.NodeID) int { return s.rankCmp(rewards[a], a, rewards[b], b) })
	return &readView{rewards: rewards, mask: mask, ranked: ranked}
}

// rerankMovedLocked builds the next view from prev when only the ids
// in s.moved and the joiners since prev changed reward. It finds each
// moved id's old place in prev.ranked and each new reward's place by
// binary search, both before any reward is written, so prev.ranked is
// sorted under every key they compare. Then it writes the new rewards
// into prev's table and builds the ranking by copying the runs of
// prev.ranked between those places: an O(n) copy and O(m log n)
// comparisons for m moved ids.
func (s *Server) rerankMovedLocked(prev *readView) *readView {
	t, old, n := s.state.Tree, prev.ranked, s.state.Tree.NumParticipants()
	slices.Sort(s.moved)
	moved := slices.Compact(s.moved)
	// Ids past len(old) joined since prev; each is also recorded.
	olds, _ := slices.BinarySearch(moved, tree.NodeID(len(old)+1))
	type move struct {
		id     tree.NodeID
		reward float64
		to     int // insertion index among prev.ranked's old keys
	}
	moves := make([]move, 0, olds+n-len(old))
	skip := make([]int, 0, olds) // the moved ids' old indices
	for _, u := range moved[:olds] {
		j, ok := slices.BinarySearchFunc(old, u, func(e, u tree.NodeID) int {
			return s.rankCmp(prev.rewards[e], e, prev.rewards[u], u)
		})
		if !ok {
			panic(fmt.Sprintf("server: re-folded id %d is not in the previous ranking", u))
		}
		skip = append(skip, j)
		moves = append(moves, move{id: u})
	}
	for u := len(old) + 1; u <= n; u++ {
		moves = append(moves, move{id: tree.NodeID(u)})
	}
	mask := prev.mask
	if mask != nil {
		// A joiner cannot be flagged itself: that takes a flip.
		for u := tree.NodeID(len(mask)); int(u) < t.Len(); u++ {
			mask = append(mask, mask[t.Parent(u)])
		}
	}
	for i := range moves {
		m := &moves[i]
		if mask == nil || !mask[m.id] {
			m.reward = s.local.Reward(t, s.agg, m.id, s.total)
		}
		m.to, _ = slices.BinarySearchFunc(old, m, func(e tree.NodeID, m *move) int {
			return s.rankCmp(prev.rewards[e], e, m.reward, m.id)
		})
	}
	rewards := append(prev.rewards, make(core.Rewards, t.Len()-len(prev.rewards))...)
	for _, m := range moves {
		rewards[m.id] = m.reward
	}
	slices.SortFunc(moves, func(a, b move) int { return s.rankCmp(a.reward, a.id, b.reward, b.id) })
	slices.Sort(skip)
	ranked := make([]tree.NodeID, 0, n)
	at := 0 // the next index of old to copy
	copyTo := func(to int) {
		for len(skip) > 0 && skip[0] < to {
			ranked = append(ranked, old[at:skip[0]]...)
			at, skip = skip[0]+1, skip[1:]
		}
		ranked = append(ranked, old[at:to]...)
		at = to
	}
	for _, m := range moves {
		copyTo(m.to)
		ranked = append(ranked, m.id)
	}
	copyTo(len(old))
	return &readView{rewards: rewards, mask: mask, ranked: ranked}
}

// rankCmp orders two ids, with rewards ra and rb, as a view ranks
// them: reward descending, then name ascending.
func (s *Server) rankCmp(ra float64, a tree.NodeID, rb float64, b tree.NodeID) int {
	if c := cmp.Compare(rb, ra); c != 0 {
		return c
	}
	return strings.Compare(s.state.Tree.Label(a), s.state.Tree.Label(b))
}

// handleRewards serves the full table in name order, which is
// deterministic even across snapshot restores (they renumber node ids
// in DFS preorder). It builds the rows under the read lock and sorts
// them by name after releasing it: only operators and checks read the
// full table, and a writer need not wait for the sort.
func (s *Server) handleRewards(w http.ResponseWriter, _ *http.Request) {
	s.mu.RLock()
	v := s.readViewLocked()
	total := s.state.Tree.Total()
	// TotalReward sums the served table, so it reflects withheld
	// payouts while Total (raw contribution) stays as recorded.
	resp := rewardsResponse{
		Mechanism:    s.mech.Name(),
		Total:        total,
		TotalReward:  v.rewards.Total(),
		Budget:       s.mech.Params().Phi * total,
		Participants: make([]Participant, len(v.ranked)),
	}
	for i := range resp.Participants {
		u := tree.NodeID(i + 1)
		resp.Participants[i] = s.viewOfLocked(u, v.rewards[u], v.masked(u))
	}
	s.mu.RUnlock()
	slices.SortFunc(resp.Participants, func(a, b Participant) int { return strings.Compare(a.Name, b.Name) })
	writeJSON(w, http.StatusOK, resp)
}

// leaderboardResponse is the wire format of GET /v1/leaderboard.
type leaderboardResponse struct {
	Mechanism    string        `json:"mechanism"`
	K            int           `json:"k"`
	Participants int           `json:"participants"`
	Leaders      []Participant `json:"leaders"`
}

// handleLeaderboard serves the top-K participants by reward, ties by
// name. ?k=N defaults to 10 and is clamped to the participant count; a
// malformed or non-positive k is a 400.
func (s *Server) handleLeaderboard(w http.ResponseWriter, r *http.Request) {
	k := 10
	if q := r.URL.Query().Get("k"); q != "" {
		n, err := strconv.Atoi(q)
		if err != nil || n < 1 {
			writeJSON(w, http.StatusBadRequest, errorResponse{"k must be a positive integer, got " + strconv.Quote(q)})
			return
		}
		k = n
	}
	s.mu.RLock()
	v := s.readViewLocked()
	k = min(k, len(v.ranked))
	resp := leaderboardResponse{
		Mechanism:    s.mech.Name(),
		K:            k,
		Participants: len(v.ranked),
		Leaders:      make([]Participant, k),
	}
	for i, u := range v.ranked[:k] {
		resp.Leaders[i] = s.viewOfLocked(u, v.rewards[u], v.masked(u))
	}
	s.mu.RUnlock()
	writeJSON(w, http.StatusOK, resp)
}
