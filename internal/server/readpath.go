package server

import (
	"net/http"
	"sort"
	"strconv"

	"incentivetree/internal/query"
)

// queryView is the cached read-side view of one committed state: the
// full reward table sorted by name (GET /v1/rewards) and the same
// participants ranked by reward (GET /v1/leaderboard). One view is
// built per committed batch version, so bursts of reads between writes
// cost one pass over the reward aggregates total.
type queryView struct {
	rewards rewardsResponse
	leaders []Participant // by reward desc, name asc on ties
}

// initCache wires the versioned read cache; called at the end of New
// so it sees the final metrics registry and labels.
func (s *Server) initCache() {
	s.cache = query.New(s.stateVersion, s.buildQueryView)
	if s.metrics != nil {
		s.cache.Counters(
			s.metrics.Counter("itree_rewards_cache_hits_total",
				"Reward-table reads served from the versioned cache.", s.labels...),
			s.metrics.Counter("itree_rewards_cache_misses_total",
				"Reward-table cache rebuilds (one pass over the reward aggregates each).", s.labels...),
		)
	}
}

// stateVersion reads the commit version: bumped once per applied batch
// and per state restore, so any cached view keyed to it is a
// consistent batch-boundary snapshot — never a torn mid-batch state
// (batches hold the write lock end to end).
func (s *Server) stateVersion() uint64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.version
}

// buildQueryView reads the served reward table once and derives both
// read views under the read lock, returning the version they
// correspond to.
func (s *Server) buildQueryView() (uint64, *queryView, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	// servedRewardsLocked zeroes quarantined subtrees, so both views —
	// and TotalReward, which sums the served table — reflect withheld
	// payouts while Total (raw contribution) stays as recorded.
	rewards, mask := s.servedRewardsLocked()
	resp := rewardsResponse{
		Mechanism:    s.mech.Name(),
		Total:        s.tree.Total(),
		TotalReward:  rewards.Total(),
		Budget:       s.mech.Params().Phi * s.tree.Total(),
		Participants: make([]Participant, 0, s.tree.NumParticipants()),
	}
	for _, u := range s.tree.Nodes() {
		resp.Participants = append(resp.Participants, s.viewOfLocked(u, rewards[u], mask != nil && mask[u]))
	}
	// Sorted by name so the table is deterministic even across snapshot
	// restores, which renumber node ids in DFS preorder.
	sort.Slice(resp.Participants, func(i, j int) bool {
		return resp.Participants[i].Name < resp.Participants[j].Name
	})
	leaders := make([]Participant, len(resp.Participants))
	copy(leaders, resp.Participants)
	sort.SliceStable(leaders, func(i, j int) bool {
		return leaders[i].Reward > leaders[j].Reward
	})
	return s.version, &queryView{rewards: resp, leaders: leaders}, nil
}

func (s *Server) handleRewards(w http.ResponseWriter, _ *http.Request) {
	view, err := s.cache.Get()
	if err != nil {
		writeJSON(w, http.StatusInternalServerError, errorResponse{err.Error()})
		return
	}
	writeJSON(w, http.StatusOK, view.rewards)
}

// leaderboardResponse is the wire format of GET /v1/leaderboard.
type leaderboardResponse struct {
	Mechanism    string        `json:"mechanism"`
	K            int           `json:"k"`
	Participants int           `json:"participants"`
	Leaders      []Participant `json:"leaders"`
}

// handleLeaderboard serves the top-K participants by reward from the
// versioned cache. ?k=N defaults to 10 and is clamped to the
// participant count; a malformed or non-positive k is a 400.
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
	view, err := s.cache.Get()
	if err != nil {
		writeJSON(w, http.StatusInternalServerError, errorResponse{err.Error()})
		return
	}
	if k > len(view.leaders) {
		k = len(view.leaders)
	}
	writeJSON(w, http.StatusOK, leaderboardResponse{
		Mechanism:    s.mech.Name(),
		K:            k,
		Participants: len(view.leaders),
		Leaders:      view.leaders[:k],
	})
}
