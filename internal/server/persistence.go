package server

import (
	"encoding/json"
	"fmt"
	"net/http"

	"incentivetree/internal/core"
	"incentivetree/internal/journal"
	"incentivetree/internal/tree"
)

// Option configures a Server.
type Option func(*Server)

// WithJournal attaches a write-ahead event log: every successful join
// and contribution is appended to jw, so `snapshot + journal suffix`
// reconstructs the deployment after a restart (see internal/journal).
func WithJournal(jw *journal.Writer) Option {
	return func(s *Server) { s.journal = jw }
}

// Snapshot is the wire format of a full state export.
type Snapshot struct {
	// LastSeq is the journal sequence number the snapshot includes
	// (0 when no journal is attached).
	LastSeq uint64 `json:"last_seq"`
	// Tree is the full referral tree with labels and contributions.
	Tree *tree.Tree `json:"tree"`
	// Quarantined lists the payout-quarantine flags in force, sorted by
	// name. Absent in pre-quarantine snapshots, which decode as none.
	Quarantined []string `json:"quarantined,omitempty"`
	// Epochs holds the settled payout epochs, oldest first. Absent in
	// pre-settlement snapshots, which decode as an empty ledger — and
	// absent when the ledger is empty, so those snapshots' bytes stay
	// identical to older releases.
	Epochs []journal.SettledEpoch `json:"epochs,omitempty"`
}

// SnapshotState exports the current deployment state.
func (s *Server) SnapshotState() Snapshot {
	return s.SnapshotAt(nil)
}

// SnapshotAt exports the current state and, if fn is non-nil, invokes
// it while the read lock is still held. Writes take the write lock, so
// fn observes external positions — e.g. the journal file's byte size —
// exactly consistent with the snapshot boundary. This is the primitive
// the store's checkpointer builds on: snapshot at seq k, remember the
// journal offset holding events 1..k, later drop that prefix once the
// snapshot is durable.
func (s *Server) SnapshotAt(fn func()) Snapshot {
	s.mu.RLock()
	defer s.mu.RUnlock()
	snap := Snapshot{LastSeq: s.lastSeq, Tree: s.tree.Clone(), Quarantined: s.quarantinedNamesLocked(), Epochs: s.ledger.Snapshot()}
	if fn != nil {
		fn()
	}
	return snap
}

// LastSeq returns the sequence number of the last applied event.
func (s *Server) LastSeq() uint64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.lastSeq
}

// RestoreState replaces the deployment state with the snapshot. The
// snapshot's participant names must be unique (they are the API keys).
func (s *Server) RestoreState(snap Snapshot) error {
	st, err := stateFromSnapshot(snap)
	if err != nil {
		return err
	}
	s.adoptState(st)
	return nil
}

// stateFromSnapshot validates a snapshot and converts it to replay
// state, including its quarantine flags.
func stateFromSnapshot(snap Snapshot) (*journal.State, error) {
	if snap.Tree == nil {
		return nil, fmt.Errorf("server: snapshot without tree")
	}
	if err := snap.Tree.Validate(); err != nil {
		return nil, fmt.Errorf("server: snapshot invalid: %w", err)
	}
	st, err := journal.StateFromTree(snap.Tree, snap.LastSeq)
	if err != nil {
		return nil, fmt.Errorf("server: %w", err)
	}
	for _, name := range snap.Quarantined {
		if _, ok := st.ByName[name]; !ok {
			return nil, fmt.Errorf("server: snapshot quarantines unknown participant %q", name)
		}
		st.Quarantined[name] = true
	}
	if len(snap.Epochs) > 0 {
		for _, se := range snap.Epochs {
			for _, r := range se.Rewards {
				if _, ok := st.ByName[r.Name]; !ok {
					return nil, fmt.Errorf("server: snapshot epoch %d settles unknown participant %q", se.Epoch, r.Name)
				}
			}
		}
		ledger, err := journal.LedgerFromEpochs(snap.Epochs)
		if err != nil {
			return nil, fmt.Errorf("server: snapshot ledger: %w", err)
		}
		st.Ledger = ledger
	}
	return st, nil
}

// adoptState installs a replayed state, folding the reward aggregates
// of the new tree in one O(n) pass.
func (s *Server) adoptState(st *journal.State) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.tree = st.Tree
	s.agg = core.FoldAll(s.local, s.tree, s.agg)
	if s.local.UsesTotal() {
		s.total = s.tree.Total()
	}
	s.byKey = st.ByName
	s.lastSeq = st.LastSeq
	s.quarantined = st.Quarantined
	if s.quarantined == nil {
		s.quarantined = make(map[string]bool)
	}
	s.ledger = st.Ledger
	if s.ledger == nil {
		s.ledger = journal.NewLedger()
	}
	// lastSeq may move backwards on a restore, but the view version must
	// not alias old numbers onto new state — keep it strictly advancing.
	s.version++
	if s.commitHook != nil {
		// A restore invalidates any incremental knowledge downstream.
		s.commitHook(s.version, nil)
	}
}

// ApplyReplicated applies a contiguous batch of journal events
// replicated from a primary, under the write lock and through the same
// replay code as crash recovery, then re-folds the reward aggregates on
// the root paths of its joins and contributions — so a follower that
// applies the primary's journal reaches byte-identical state. The
// batch must extend the current state exactly (first event at
// LastSeq+1, no gaps); this is checked before anything mutates. On a replay error
// the state may be partially advanced: the caller (a replication
// follower) must discard the deployment and re-bootstrap from a
// snapshot, which is its recovery path for any divergence.
func (s *Server) ApplyReplicated(events []journal.Event) error {
	if len(events) == 0 {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if events[0].Seq != s.lastSeq+1 {
		return fmt.Errorf("server: replicated batch starts at seq %d, state is at %d", events[0].Seq, s.lastSeq)
	}
	for i := 1; i < len(events); i++ {
		if events[i].Seq != events[i-1].Seq+1 {
			return fmt.Errorf("server: replicated batch has a gap: %d after %d", events[i].Seq, events[i-1].Seq)
		}
	}
	st := &journal.State{Tree: s.tree, ByName: s.byKey, LastSeq: s.lastSeq, Quarantined: s.quarantined, Ledger: s.ledger}
	st, err := journal.Replay(st, events)
	// Replay mutates the tree in place, also when it fails part-way, so
	// the aggregates follow it either way.
	var touched []tree.NodeID
	for _, e := range events {
		if e.Kind != journal.KindJoin && e.Kind != journal.KindContribute {
			continue
		}
		if id, ok := s.byKey[e.Name]; ok {
			touched = append(touched, id)
		}
	}
	s.refoldLocked(touched)
	if err != nil {
		// Keep the read view from serving the partially mutated tree.
		s.version++
		return err
	}
	s.lastSeq = st.LastSeq
	s.quarantined = st.Quarantined
	s.ledger = st.Ledger
	s.version++
	return nil
}

// Recover rebuilds a server from a snapshot plus the journal events
// recorded after it. Either part may be empty.
func Recover(s *Server, snap *Snapshot, events []journal.Event) error {
	base := (*journal.State)(nil)
	if snap != nil {
		st, err := stateFromSnapshot(*snap)
		if err != nil {
			return err
		}
		base = st
	}
	// Drop events already covered by the snapshot.
	var suffix []journal.Event
	last := uint64(0)
	if base != nil {
		last = base.LastSeq
	}
	for _, e := range events {
		if e.Seq > last {
			suffix = append(suffix, e)
		}
	}
	st, err := journal.Replay(base, suffix)
	if err != nil {
		return err
	}
	s.adoptState(st)
	return nil
}

func (s *Server) handleSnapshot(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.SnapshotState())
}

func (s *Server) handleRestore(w http.ResponseWriter, r *http.Request) {
	var snap Snapshot
	if err := json.NewDecoder(r.Body).Decode(&snap); err != nil {
		writeJSON(w, http.StatusBadRequest, errorResponse{"malformed snapshot: " + err.Error()})
		return
	}
	if err := s.RestoreState(snap); err != nil {
		writeJSON(w, http.StatusBadRequest, errorResponse{err.Error()})
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"restored": true, "last_seq": snap.LastSeq})
}
