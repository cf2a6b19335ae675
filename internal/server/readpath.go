package server

import (
	"cmp"
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
// ranked by reward descending, then name ascending (re-sorted from the
// previous view's ranking, see readViewLocked). The table reads build
// Participant views only for the rows they return.
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
// A miss sorts the previous view's ranking plus the ids that joined
// since, so its cost tracks how many ids changed reward between the
// two versions and never exceeds a sort from id order. Under TDRM,
// CDRM and Geometric a commit moves only the ids on the root paths it
// touched, and pdqsort places the nearly sorted input in close to one
// pass. Every ranking is a permutation of 1..len, so only a restore to
// a smaller tree (a previous ranking longer than the tree) starts from
// id order instead.
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
	rewards, mask := s.servedRewardsLocked()
	n := s.state.Tree.NumParticipants()
	ranked := make([]tree.NodeID, 0, n)
	if prev != nil && len(prev.ranked) <= n {
		ranked = append(ranked, prev.ranked...)
	}
	for u := len(ranked) + 1; u <= n; u++ {
		ranked = append(ranked, tree.NodeID(u))
	}
	slices.SortFunc(ranked, func(a, b tree.NodeID) int {
		if c := cmp.Compare(rewards[b], rewards[a]); c != 0 {
			return c
		}
		return strings.Compare(s.state.Tree.Label(a), s.state.Tree.Label(b))
	})
	v := &readView{version: s.version, rewards: rewards, mask: mask, ranked: ranked}
	s.view.Store(v)
	return v
}

// handleRewards serves the full table in name order, which is
// deterministic even across snapshot restores (they renumber node ids
// in DFS preorder). The name order is sorted per request: only
// operators and checks read the full table.
func (s *Server) handleRewards(w http.ResponseWriter, _ *http.Request) {
	s.mu.RLock()
	v := s.readViewLocked()
	ids := slices.Clone(v.ranked)
	slices.SortFunc(ids, func(a, b tree.NodeID) int {
		return strings.Compare(s.state.Tree.Label(a), s.state.Tree.Label(b))
	})
	// TotalReward sums the served table, so it reflects withheld
	// payouts while Total (raw contribution) stays as recorded.
	resp := rewardsResponse{
		Mechanism:    s.mech.Name(),
		Total:        s.state.Tree.Total(),
		TotalReward:  v.rewards.Total(),
		Budget:       s.mech.Params().Phi * s.state.Tree.Total(),
		Participants: make([]Participant, len(ids)),
	}
	for i, u := range ids {
		resp.Participants[i] = s.viewOfLocked(u, v.rewards[u], v.masked(u))
	}
	s.mu.RUnlock()
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
