package server

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"slices"
	"strings"

	"incentivetree/internal/core"
	"incentivetree/internal/ingest"
	"incentivetree/internal/journal"
	"incentivetree/internal/tree"
)

// errJournalAppend marks a write the journal failed to persist. The
// ops were valid; the log refused them (I/O error, or a journal file
// left read-only by a failed rollback), so clients see 503, not 400.
var errJournalAppend = errors.New("server: journal append")

// WithBatching routes HTTP writes through a group-commit ingest
// pipeline (see internal/ingest): requests enqueue onto a bounded
// queue, a committer goroutine drains them into batches, and each
// batch applies under one lock acquisition with one journal write
// (one fsync under journal.SyncAlways) and one re-fold of the reward
// aggregates on the root paths the batch touched.
// A full queue sheds writes with 429 + Retry-After. When the options'
// Registry is unset, the pipeline inherits the server's metrics
// registry and labels. Callers owning the server's lifecycle must
// call CloseIngest before closing the journal beneath it.
func WithBatching(o ingest.Options) Option {
	return func(s *Server) { opt := o; s.batching = &opt }
}

// CloseIngest stops the ingest committer, draining queued writes into
// a final commit. Idempotent; a no-op for servers without batching.
func (s *Server) CloseIngest() {
	if s.committer != nil {
		s.committer.Close()
	}
}

// IngestQueueLen reports the ingest queue's current depth (0 without
// batching) — used by tests and operational probes.
func (s *Server) IngestQueueLen() int {
	if s.committer == nil {
		return 0
	}
	return s.committer.QueueLen()
}

// Join registers a participant programmatically (used by the daemon's
// seeding flag and by tests). It commits directly — a batch of one —
// without passing through the ingest queue.
func (s *Server) Join(name, sponsor string) error {
	return s.commit(opEvent(ingest.Op{Kind: ingest.OpJoin, Name: name, Sponsor: sponsor}))
}

// Contribute records work done by an existing participant, committed
// directly as a batch of one.
func (s *Server) Contribute(name string, amount float64) error {
	return s.commit(opEvent(ingest.Op{Kind: ingest.OpContribute, Name: name, Amount: amount}))
}

// SubmitJoin routes a join through the ingest pipeline when one is
// attached — blocking until its batch commits — and applies it as a
// direct batch of one otherwise. The returned view is the committed
// state's.
func (s *Server) SubmitJoin(ctx context.Context, name, sponsor string) (Participant, error) {
	return s.submit(ctx, ingest.Op{Kind: ingest.OpJoin, Name: name, Sponsor: sponsor})
}

// SubmitContribute is SubmitJoin for contributions.
func (s *Server) SubmitContribute(ctx context.Context, name string, amount float64) (Participant, error) {
	return s.submit(ctx, ingest.Op{Kind: ingest.OpContribute, Name: name, Amount: amount})
}

func (s *Server) submit(ctx context.Context, op ingest.Op) (Participant, error) {
	if s.committer == nil {
		res := s.ApplyBatch([]ingest.Op{op})[0]
		if res.Err != nil {
			return Participant{}, res.Err
		}
		return res.Value.(Participant), nil
	}
	v, err := s.committer.Submit(ctx, op)
	if err != nil {
		return Participant{}, err
	}
	return v.(Participant), nil
}

// opEvent is the journal event an ingest op asks for. A join's name is
// recorded trimmed of surrounding space.
func opEvent(op ingest.Op) journal.Event {
	if op.Kind == ingest.OpJoin {
		return journal.Event{Kind: journal.KindJoin, Name: strings.TrimSpace(op.Name), Sponsor: op.Sponsor}
	}
	return journal.Event{Kind: journal.KindContribute, Name: op.Name, Amount: op.Amount}
}

// ApplyBatch implements ingest.Applier: the whole batch commits under
// one write-lock acquisition, with a single journal write and one
// re-fold of the reward aggregates; every success's post-commit view is
// then read from them. Per-op validation errors are reported
// individually and never fail the rest of the batch.
func (s *Server) ApplyBatch(ops []ingest.Op) []ingest.Result {
	events := make([]journal.Event, len(ops))
	for i, op := range ops {
		events[i] = opEvent(op)
	}
	results := make([]ingest.Result, len(ops))
	s.mu.Lock()
	defer s.mu.Unlock()
	for i, err := range s.commitLocked(events) {
		if err != nil {
			results[i].Err = err
			continue
		}
		results[i].Value = s.viewLocked(s.state.ByName[opEvent(ops[i]).Name])
	}
	return results
}

// commit commits one event under the write lock.
func (s *Server) commit(e journal.Event) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.commitLocked([]journal.Event{e})[0]
}

// commitLocked is the one write path. It applies events in order, each
// at the next seq, journals the ones that applied with one append, and
// undoes them newest first if the append fails, so no reader sees an
// event before its append. errs[i] is event i's outcome. It reuses
// events' backing array. Callers hold the write lock.
func (s *Server) commitLocked(events []journal.Event) []error {
	errs := make([]error, len(events))
	undos := make([]journal.Undo, 0, len(events))
	applied := events[:0]
	for i, e := range events {
		e.Seq = s.state.LastSeq + 1
		u, err := s.state.Apply(e)
		if err != nil {
			errs[i] = err
			continue
		}
		applied = append(applied, e)
		undos = append(undos, u)
	}
	if len(applied) == 0 {
		return errs
	}
	if s.journal != nil {
		persisted, err := s.journal.AppendBatch(applied)
		if err != nil {
			s.undoLocked(undos)
			err = fmt.Errorf("%w: %w", errJournalAppend, err)
			for i := range errs {
				if errs[i] == nil {
					errs[i] = err
				}
			}
			return errs
		}
		if persisted[0].Seq != applied[0].Seq {
			panic(fmt.Sprintf("server: the journal recorded seq %d for an event applied at seq %d", persisted[0].Seq, applied[0].Seq))
		}
	}
	s.publishLocked(applied)
	return errs
}

// undoLocked reverses applied events, newest first.
func (s *Server) undoLocked(undos []journal.Undo) {
	for i := len(undos) - 1; i >= 0; i-- {
		s.state.Undo(undos[i])
	}
}

// publishLocked re-folds the reward aggregates on the root paths of
// the committed joins and contributions, and moves the version when one
// of those or a quarantine flip changed what a read returns (settles
// and claims do not). The commit observer gets the names they touched.
func (s *Server) publishLocked(events []journal.Event) {
	touched := make([]tree.NodeID, 0, len(events))
	var names []string
	flipped := false
	for _, e := range events {
		switch e.Kind {
		case journal.KindJoin, journal.KindContribute:
			touched = append(touched, s.state.ByName[e.Name])
			if s.commitHook != nil {
				names = append(names, e.Name)
			}
		case journal.KindQuarantine, journal.KindUnquarantine:
			flipped = true
		}
	}
	if len(touched) == 0 && !flipped {
		return
	}
	if len(touched) > 0 {
		s.refoldLocked(touched)
	}
	s.version++
	if names != nil {
		s.commitHook(s.version, names)
	}
}

// refoldLocked brings the reward aggregates up to date with the tree
// after the nodes in touched changed (joined, or gained contribution).
// Only their root paths can change, so it re-folds the union of those
// paths once, children before parents: ids are topological, so
// descending id order puts every child ahead of its parent. Each
// node's fold re-reads all its children, which reproduces the full
// pass's summation order and hence its bits.
func (s *Server) refoldLocked(touched []tree.NodeID) {
	t := s.state.Tree
	if n := t.Len(); len(s.agg) < n {
		s.agg = append(s.agg, make([]float64, n-len(s.agg))...)
	}
	var path []tree.NodeID
	for _, u := range touched {
		for v := u; v != tree.Root; v = t.Parent(v) {
			path = append(path, v)
		}
	}
	slices.SortFunc(path, func(a, b tree.NodeID) int { return cmp.Compare(b, a) })
	for _, v := range slices.Compact(path) {
		s.agg[v] = core.Fold(s.local, t, s.agg, v)
	}
	if s.local.UsesTotal() {
		s.total = t.Total()
	}
}
