package server

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"slices"
	"strings"
	"time"

	"incentivetree/internal/core"
	"incentivetree/internal/journal"
	"incentivetree/internal/tree"
)

// Defaults for WithGroupCommit values <= 0.
const (
	// DefaultBatchMax caps the writes one group commit takes. Batches
	// form by coalescing: writes that arrive while a batch commits are
	// taken together into the next one.
	DefaultBatchMax = 64
	// DefaultQueueDepth is the admission-control bound: the number of
	// writes that may wait for a commit before a submit sheds load.
	DefaultQueueDepth = 1024
)

// ErrQueueFull reports a write shed by admission control: the write
// queue is full and the caller should retry later (HTTP: 429 with
// Retry-After).
var ErrQueueFull = errors.New("server: write queue full")

// errJournalAppend marks a write the journal failed to persist. The
// ops were valid; the log refused them (I/O error, or a journal file
// left read-only by a failed rollback), so clients see 503, not 400.
var errJournalAppend = errors.New("server: journal append")

// WithGroupCommit bounds the write queue that SubmitJoin and
// SubmitContribute feed: batchMax is the most writes one commit takes,
// and queueDepth the most that may wait before a submit sheds with
// ErrQueueFull. A value <= 0 keeps DefaultBatchMax or
// DefaultQueueDepth. With batchMax = 1 every queued write commits on
// its own, in arrival order.
func WithGroupCommit(batchMax, queueDepth int) Option {
	return func(s *Server) {
		if batchMax > 0 {
			s.batchMax = batchMax
		}
		if queueDepth > 0 {
			s.queueDepth = queueDepth
		}
	}
}

// queuedWrite is one submitted write waiting for its commit.
type queuedWrite struct {
	event journal.Event
	done  chan writeResult // buffered(1): the drainer never blocks on a gone waiter
}

// writeResult is one write's outcome: its participant's committed view,
// or the write's own error.
type writeResult struct {
	p   Participant
	err error
}

// IngestQueueLen reports how many writes wait in the queue, not
// counting a batch being committed (the itree_ingest_queue_depth
// gauge).
func (s *Server) IngestQueueLen() int {
	s.queueMu.Lock()
	defer s.queueMu.Unlock()
	return len(s.queue)
}

// Join registers a participant programmatically (used by the daemon's
// seeding flag and by tests). It commits directly — a batch of one —
// without passing through the write queue.
func (s *Server) Join(name, sponsor string) error {
	return s.commit(joinEvent(name, sponsor))
}

// Contribute records work done by an existing participant, committed
// directly as a batch of one.
func (s *Server) Contribute(name string, amount float64) error {
	return s.commit(journal.Event{Kind: journal.KindContribute, Name: name, Amount: amount})
}

// SubmitJoin queues a join for group commit and blocks until its batch
// commits; the returned view is the committed state's. A full queue
// sheds the join with ErrQueueFull. If ctx ends first, SubmitJoin
// returns ctx.Err(), and the join still commits.
func (s *Server) SubmitJoin(ctx context.Context, name, sponsor string) (Participant, error) {
	return s.submit(ctx, joinEvent(name, sponsor))
}

// SubmitContribute is SubmitJoin for contributions.
func (s *Server) SubmitContribute(ctx context.Context, name string, amount float64) (Participant, error) {
	return s.submit(ctx, journal.Event{Kind: journal.KindContribute, Name: name, Amount: amount})
}

// joinEvent is the journal event of a join. The name is recorded
// trimmed of surrounding space.
func joinEvent(name, sponsor string) journal.Event {
	return journal.Event{Kind: journal.KindJoin, Name: strings.TrimSpace(name), Sponsor: sponsor}
}

// submit appends e to the write queue, starts a drainer when none runs,
// and waits for e's result.
func (s *Server) submit(ctx context.Context, e journal.Event) (Participant, error) {
	w := &queuedWrite{event: e, done: make(chan writeResult, 1)}
	s.queueMu.Lock()
	if len(s.queue) >= s.queueDepth {
		s.queueMu.Unlock()
		s.shed.Inc()
		return Participant{}, ErrQueueFull
	}
	s.queue = append(s.queue, w)
	start := !s.draining
	s.draining = true
	s.queueMu.Unlock()
	if start {
		go s.drain()
	}
	select {
	case r := <-w.done:
		return r.p, r.err
	case <-ctx.Done():
		return Participant{}, ctx.Err()
	}
}

// drain commits the queue in arrival order, at most batchMax writes per
// commit, wakes each waiter with its own result, and returns once it
// finds the queue empty. It clears draining under the same lock as that
// check, so a write queued after it starts the next drainer.
func (s *Server) drain() {
	var batch []*queuedWrite
	var events []journal.Event
	for {
		s.queueMu.Lock()
		n := min(len(s.queue), s.batchMax)
		if n == 0 {
			s.draining = false
			s.queueMu.Unlock()
			return
		}
		batch = append(batch[:0], s.queue[:n]...)
		rest := copy(s.queue, s.queue[n:])
		clear(s.queue[rest:])
		s.queue = s.queue[:rest]
		s.queueMu.Unlock()

		events = events[:0]
		for _, w := range batch {
			events = append(events, w.event)
		}
		start := time.Now()
		results := s.applyBatch(events)
		s.commitTime.Observe(time.Since(start).Seconds())
		s.batchSize.Observe(float64(n))
		s.batches.Inc()
		for i, w := range batch {
			w.done <- results[i]
		}
	}
}

// applyBatch commits events as one batch under one write-lock
// acquisition, with a single journal append and one re-fold of the
// reward aggregates, and returns each event's result. An event's own
// error never fails the rest of the batch; a failed append fails all
// of them.
func (s *Server) applyBatch(events []journal.Event) []writeResult {
	results := make([]writeResult, len(events))
	s.mu.Lock()
	defer s.mu.Unlock()
	for i, err := range s.commitLocked(slices.Clone(events)) {
		if err != nil {
			results[i].err = err
			continue
		}
		results[i].p = s.viewLocked(s.state.ByName[events[i].Name])
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
// and claims do not).
func (s *Server) publishLocked(events []journal.Event) {
	touched := make([]tree.NodeID, 0, len(events))
	flipped := false
	for _, e := range events {
		switch e.Kind {
		case journal.KindJoin, journal.KindContribute:
			touched = append(touched, s.state.ByName[e.Name])
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
	// A flip moves every reward in the flagged subtree.
	s.rerank = s.rerank || flipped
	s.version++
}

// refoldLocked brings the reward aggregates up to date with the tree
// after the nodes in touched changed (joined, or gained contribution).
// Only their root paths can change, so it re-folds the union of those
// paths once, children before parents: ids are topological, so
// descending id order puts every child ahead of its parent. Each
// node's fold re-reads all its children, which reproduces the full
// pass's summation order and hence its bits. It records the re-folded
// ids in s.moved for the next read view, until they outnumber an eighth
// of the participants: from about a sixth on (measured at 3,073 to
// 48,683 participants), re-placing each moved id by binary search costs
// more than re-sorting them all. The after-512-writes and
// after-2048-writes cases of BenchmarkReadViews sit on either side.
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
	path = slices.Compact(path)
	for _, v := range path {
		s.agg[v] = core.Fold(s.local, t, s.agg, v)
	}
	if !s.rerank {
		s.moved = append(s.moved, path...)
		s.rerank = len(s.moved) > t.NumParticipants()/8
	}
	if s.local.UsesTotal() {
		s.total = t.Total()
	}
}
