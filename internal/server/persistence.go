package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"

	"incentivetree/internal/core"
	"incentivetree/internal/journal"
)

// Option configures a Server.
type Option func(*Server)

// WithJournal attaches a write-ahead event log: every committed event is
// appended to jw, so `snapshot + journal suffix` reconstructs the
// deployment after a restart (see internal/journal).
func WithJournal(jw *journal.Writer) Option {
	return func(s *Server) { s.journal = jw }
}

// DecodeSnapshot forwards to journal.DecodeSnapshot; itreebench
// (layers.go) imports it from here.
func DecodeSnapshot(data []byte) (*journal.Snapshot, error) { return journal.DecodeSnapshot(data) }

// SnapshotState exports the current deployment state.
func (s *Server) SnapshotState() journal.Snapshot {
	return s.SnapshotAt(nil)
}

// SnapshotAt exports the current state and, if fn is non-nil, invokes
// it while the read lock is still held. Writes take the write lock, so
// fn observes external positions — e.g. the journal file's byte size —
// exactly consistent with the snapshot boundary. This is the primitive
// the store's checkpointer builds on: snapshot at seq k, remember the
// journal offset holding events 1..k, later drop that prefix once the
// snapshot is durable.
func (s *Server) SnapshotAt(fn func()) journal.Snapshot {
	s.mu.RLock()
	defer s.mu.RUnlock()
	snap := s.state.Snapshot()
	if fn != nil {
		fn()
	}
	return snap
}

// LastSeq returns the sequence number of the last applied event.
func (s *Server) LastSeq() uint64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.state.LastSeq
}

// Summary reports the participant count, C(T) and the last applied seq
// under one read lock, copying nothing.
func (s *Server) Summary() (participants int, total float64, lastSeq uint64) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.state.Tree.NumParticipants(), s.state.Tree.Total(), s.state.LastSeq
}

// ErrRestoreJournaled refuses a restore on a server with a journal: a
// restore writes no record, so recovery would not replay it.
var ErrRestoreJournaled = errors.New("server: a journaled campaign cannot be restored while it runs; " +
	"stop the daemon, `itree convert` the snapshot into the campaign's snapshot.bin, and empty its journal.log")

// RestoreState replaces the deployment state with the snapshot (see
// journal.StateFromSnapshot for what it must satisfy). A server with a
// journal refuses with ErrRestoreJournaled.
func (s *Server) RestoreState(snap journal.Snapshot) error {
	if s.journal != nil {
		return ErrRestoreJournaled
	}
	st, err := journal.StateFromSnapshot(snap)
	if err != nil {
		return err
	}
	s.adoptState(st)
	return nil
}

// adoptState installs a replayed state, folding the reward aggregates
// of the new tree in one O(n) pass. It drops the read view: a restore
// renumbers ids, so the next read ranks every participant afresh.
func (s *Server) adoptState(st *journal.State) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.state = st
	s.agg = core.FoldAll(s.local, st.Tree, s.agg)
	if s.local.UsesTotal() {
		s.total = st.Tree.Total()
	}
	s.view.Store(nil)
	// LastSeq may move backwards on a restore, but the view version must
	// not alias old numbers onto new state — keep it strictly advancing.
	s.version++
}

// ApplyReplicated applies a batch of journal events replicated from a
// primary through the same journal.State.Apply as every other write,
// then publishes it like a commit, so a follower reaches the primary's
// bytes. Apply refuses an event that does not carry the next seq. The
// batch applies all or nothing: on an error the events already applied
// are undone.
func (s *Server) ApplyReplicated(events []journal.Event) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	undos := make([]journal.Undo, 0, len(events))
	for _, e := range events {
		u, err := s.state.Apply(e)
		if err != nil {
			s.undoLocked(undos)
			return fmt.Errorf("server: replicated seq %d: %w", e.Seq, err)
		}
		undos = append(undos, u)
	}
	s.publishLocked(events)
	return nil
}

// Recover rebuilds a server from a snapshot plus the journal events
// recorded after it. Either part may be empty. Events the snapshot
// covers are skipped; the rest must continue its seq without a gap.
func Recover(s *Server, snap *journal.Snapshot, events []journal.Event) error {
	base := (*journal.State)(nil)
	if snap != nil {
		st, err := journal.StateFromSnapshot(*snap)
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
	var snap journal.Snapshot
	if err := json.NewDecoder(r.Body).Decode(&snap); err != nil {
		writeJSON(w, http.StatusBadRequest, errorResponse{"malformed snapshot: " + err.Error()})
		return
	}
	if err := s.RestoreState(snap); err != nil {
		status := http.StatusBadRequest
		if errors.Is(err, ErrRestoreJournaled) {
			status = http.StatusConflict
		}
		writeJSON(w, status, errorResponse{err.Error()})
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"restored": true, "last_seq": snap.LastSeq})
}
