package server

import (
	"incentivetree/internal/core"
	"incentivetree/internal/journal"
	"incentivetree/internal/tree"
)

// Quarantine error sentinels, matched with errors.Is by the HTTP layer;
// journal.State.Apply returns them.
var (
	// ErrUnknownParticipant reports a quarantine op naming nobody.
	ErrUnknownParticipant = journal.ErrUnknownParticipant
	// ErrAlreadyQuarantined reports a redundant quarantine.
	ErrAlreadyQuarantined = journal.ErrAlreadyQuarantined
	// ErrNotQuarantined reports an unquarantine of an unflagged name.
	ErrNotQuarantined = journal.ErrNotQuarantined
)

// Quarantine withholds the subtree rooted at name from payout: rewards
// for the node and all its descendants are served as zero in
// /v1/rewards, /v1/leaderboard, and participant views, while raw
// contributions — and hence every other participant's reward — stay
// exactly as recorded. The flag is journaled (crash-recoverable,
// replicated) and moves the commit version so the next table read
// re-ranks: every id in the subtree changes reward at once.
func (s *Server) Quarantine(name string) error {
	return s.commit(journal.Event{Kind: journal.KindQuarantine, Name: name})
}

// Unquarantine clears a quarantine flag set by Quarantine.
func (s *Server) Unquarantine(name string) error {
	return s.commit(journal.Event{Kind: journal.KindUnquarantine, Name: name})
}

// QuarantinedNames returns the currently flagged names, sorted.
func (s *Server) QuarantinedNames() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.state.QuarantinedNames()
}

// QuarantineCount reports how many quarantine flags are set.
func (s *Server) QuarantineCount() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.state.Quarantined)
}

// IsQuarantined reports whether name itself carries a quarantine flag
// (not whether an ancestor masks it).
func (s *Server) IsQuarantined(name string) bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.state.Quarantined[name]
}

// maskedLocked reports whether u's payout is withheld: u or one of its
// ancestors carries a quarantine flag. It costs one map-length check
// while nothing is quarantined, and an ancestor walk otherwise.
func (s *Server) maskedLocked(u tree.NodeID) bool {
	if len(s.state.Quarantined) == 0 {
		return false
	}
	for v := u; v != tree.Root; v = s.state.Tree.Parent(v) {
		if s.state.Quarantined[s.state.Tree.Label(v)] {
			return true
		}
	}
	return false
}

// servedRewardsLocked returns the reward table as the API serves it —
// quarantined subtrees read zero — plus the mask that flags them (nil
// when no quarantine is active). One pass in id order builds both: a
// parent's mask entry is final before any child's.
func (s *Server) servedRewardsLocked() (core.Rewards, []bool) {
	if len(s.state.Quarantined) == 0 {
		return s.rewardsLocked(), nil
	}
	n := s.state.Tree.Len()
	mask := make([]bool, n)
	for name := range s.state.Quarantined {
		if id, ok := s.state.ByName[name]; ok {
			mask[id] = true
		}
	}
	r := make(core.Rewards, n)
	for id := 1; id < n; id++ {
		u := tree.NodeID(id)
		if mask[s.state.Tree.Parent(u)] {
			mask[u] = true
		}
		if !mask[u] {
			r[u] = s.local.Reward(s.state.Tree, s.agg, u, s.total)
		}
	}
	return r, mask
}

// Version returns the commit version: it moves on every commit that
// changes what a read returns (a join, a contribution, a quarantine
// flip) and on every restore, and never moves backwards. The
// background auditor skips a scan while it stands still.
func (s *Server) Version() uint64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.version
}

// Mechanism returns the deployment's reward mechanism (immutable).
func (s *Server) Mechanism() core.Mechanism { return s.mech }

// AuditSnapshot clones the current state for the background auditor:
// an owned copy of the tree, the sorted quarantine list, and the commit
// version they correspond to.
func (s *Server) AuditSnapshot() (*tree.Tree, []string, uint64) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.state.Tree.Clone(), s.state.QuarantinedNames(), s.version
}
