package server

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"math"
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
// seeding flag and by tests). It applies directly — a batch of one —
// without passing through the ingest queue.
func (s *Server) Join(name, sponsor string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.applyLocked([]ingest.Op{{Kind: ingest.OpJoin, Name: name, Sponsor: sponsor}})[0]
}

// Contribute records work done by an existing participant, applied
// directly as a batch of one.
func (s *Server) Contribute(name string, amount float64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.applyLocked([]ingest.Op{{Kind: ingest.OpContribute, Name: name, Amount: amount}})[0]
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

// ApplyBatch implements ingest.Applier: the whole batch applies under
// one write-lock acquisition, journals with a single write, and
// re-folds the reward aggregates once; every success's post-commit view
// is then read from them. Per-op validation errors are reported
// individually and never fail the rest of the batch.
func (s *Server) ApplyBatch(ops []ingest.Op) []ingest.Result {
	s.mu.Lock()
	defer s.mu.Unlock()
	errs := s.applyLocked(ops)
	results := make([]ingest.Result, len(ops))
	for i, op := range ops {
		if errs[i] != nil {
			results[i].Err = errs[i]
			continue
		}
		name := op.Name
		if op.Kind == ingest.OpJoin {
			name = strings.TrimSpace(name)
		}
		results[i].Value = s.viewLocked(s.byKey[name])
	}
	return results
}

// applyLocked validates and applies ops in order under the held write
// lock, then journals every success as one batch append. errs[i] is
// op i's individual outcome. If the journal rejects the batch, every
// in-memory mutation is rolled back so memory never diverges from what
// a restart would replay, and the append error is reported on each op
// that had applied. Only a committed batch re-folds the reward
// aggregates, so a rolled-back one never touches them.
func (s *Server) applyLocked(ops []ingest.Op) []error {
	errs := make([]error, len(ops))
	events := make([]journal.Event, 0, len(ops))
	eventOps := make([]int, 0, len(ops))
	touched := make([]tree.NodeID, 0, len(ops))
	mark := s.tree.Mark()
	var joins []string
	var contribs []contribUndo
	for i, op := range ops {
		switch op.Kind {
		case ingest.OpJoin:
			name, err := s.joinLocked(op.Name, op.Sponsor)
			if err != nil {
				errs[i] = err
				continue
			}
			joins = append(joins, name)
			touched = append(touched, s.byKey[name])
			events = append(events, journal.Event{Kind: journal.KindJoin, Name: name, Sponsor: op.Sponsor})
			eventOps = append(eventOps, i)
		case ingest.OpContribute:
			undo, err := s.contributeLocked(op.Name, op.Amount)
			if err != nil {
				errs[i] = err
				continue
			}
			contribs = append(contribs, undo)
			touched = append(touched, undo.id)
			events = append(events, journal.Event{Kind: journal.KindContribute, Name: op.Name, Amount: op.Amount})
			eventOps = append(eventOps, i)
		default:
			errs[i] = fmt.Errorf("server: unknown op kind %d", op.Kind)
		}
	}
	if len(events) == 0 {
		return errs
	}
	if s.journal != nil {
		persisted, err := s.journal.AppendBatch(events)
		if err != nil {
			s.rollbackLocked(mark, joins, contribs)
			err = fmt.Errorf("%w: %w", errJournalAppend, err)
			for _, oi := range eventOps {
				errs[oi] = err
			}
			return errs
		}
		s.lastSeq = persisted[len(persisted)-1].Seq
	} else {
		s.lastSeq += uint64(len(events))
	}
	s.refoldLocked(touched)
	s.version++
	if s.commitHook != nil {
		touched := make([]string, len(events))
		for i, e := range events {
			touched[i] = e.Name
		}
		s.commitHook(s.version, touched)
	}
	return errs
}

// joinLocked validates and applies one join, returning the
// (whitespace-trimmed) name recorded in the journal event.
func (s *Server) joinLocked(name, sponsor string) (string, error) {
	name = strings.TrimSpace(name)
	if name == "" {
		return "", errors.New("name must not be empty")
	}
	if _, dup := s.byKey[name]; dup {
		return "", fmt.Errorf("participant %q already exists", name)
	}
	parent := tree.Root
	if sponsor != "" {
		p, ok := s.byKey[sponsor]
		if !ok {
			return "", fmt.Errorf("unknown sponsor %q", sponsor)
		}
		parent = p
	}
	id, err := s.tree.Add(parent, 0)
	if err != nil {
		return "", err
	}
	if err := s.tree.SetLabel(id, name); err != nil {
		return "", err
	}
	s.byKey[name] = id
	return name, nil
}

// contribUndo records the pre-op contribution of one participant so a
// failed batch can restore the exact value (no floating-point drift).
type contribUndo struct {
	id  tree.NodeID
	old float64
}

// contributeLocked validates and applies one contribution, returning
// its undo record.
func (s *Server) contributeLocked(name string, amount float64) (contribUndo, error) {
	// NaN fails every comparison, so the positivity check alone would
	// admit it (and ±Inf); reject non-finite amounts explicitly.
	if math.IsNaN(amount) || math.IsInf(amount, 0) {
		return contribUndo{}, fmt.Errorf("amount %v must be finite", amount)
	}
	if amount <= 0 {
		return contribUndo{}, fmt.Errorf("amount %v must be positive", amount)
	}
	id, ok := s.byKey[name]
	if !ok {
		return contribUndo{}, fmt.Errorf("unknown participant %q", name)
	}
	undo := contribUndo{id: id, old: s.tree.Contribution(id)}
	if err := s.tree.AddContribution(id, amount); err != nil {
		return contribUndo{}, err
	}
	return undo, nil
}

// rollbackLocked undoes an applied-but-unjournaled batch: restore
// contribution values (reverse order, so repeated contributions to one
// participant land back on the first-recorded value), drop the name
// index entries of batch joins, and truncate their tree nodes.
func (s *Server) rollbackLocked(mark tree.Mark, joins []string, contribs []contribUndo) {
	for i := len(contribs) - 1; i >= 0; i-- {
		// Restoring a recorded prior value of an existing node cannot fail.
		_ = s.tree.SetContribution(contribs[i].id, contribs[i].old)
	}
	for _, name := range joins {
		delete(s.byKey, name)
	}
	// The tree always holds at least the imaginary root, so the mark is
	// valid by construction.
	_ = s.tree.ResetTo(mark)
}

// refoldLocked brings the reward aggregates up to date with the tree
// after the nodes in touched changed (joined, or gained contribution).
// Only their root paths can change, so it re-folds the union of those
// paths once, children before parents: ids are topological, so
// descending id order puts every child ahead of its parent. Each
// node's fold re-reads all its children, which reproduces the full
// pass's summation order and hence its bits.
func (s *Server) refoldLocked(touched []tree.NodeID) {
	if n := s.tree.Len(); len(s.agg) < n {
		s.agg = append(s.agg, make([]float64, n-len(s.agg))...)
	}
	var path []tree.NodeID
	for _, u := range touched {
		for v := u; v != tree.Root; v = s.tree.Parent(v) {
			path = append(path, v)
		}
	}
	slices.SortFunc(path, func(a, b tree.NodeID) int { return cmp.Compare(b, a) })
	for _, v := range slices.Compact(path) {
		s.agg[v] = core.Fold(s.local, s.tree, s.agg, v)
	}
	if s.local.UsesTotal() {
		s.total = s.tree.Total()
	}
}
