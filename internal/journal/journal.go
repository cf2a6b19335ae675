// Package journal holds a campaign's state and every format it takes.
// Every state change (join, contribute, quarantine, settle, claim) is
// recorded as one CRC-checked binary record (see binary.go), and a log
// replays into the exact referral tree — and payout-quarantine set and
// settlement ledger — it witnessed. A Snapshot is the whole state at
// one seq, in JSON or in the binary checkpoint codec (see
// snapshot.go). Together they give the in-memory HTTP service
// (internal/server) crash-recovery semantics: snapshot +
// suffix-of-journal = current state.
//
// State.Apply is the one place the state rules live: the server
// commits every write through it and Replay is a loop over it, so what
// the live path acknowledges is exactly what recovery replays. It
// requires each event to carry the next seq. Ledger.Settle computes the
// next settle record, with the draw-down ApplySettle re-checks.
package journal

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"math"
	"sync"

	"incentivetree/internal/obs"
	"incentivetree/internal/tree"
)

// Journal activity is recorded in the process-wide obs registry so a
// serving daemon can watch write rates and recovery health.
var (
	metricAppends     = obs.Default().Counter("itree_journal_appends_total", "Events appended to the journal.")
	metricAppendBytes = obs.Default().Counter("itree_journal_append_bytes_total", "Bytes appended to the journal.")
	metricReplays     = obs.Default().Counter("itree_journal_replay_events_total", "Events replayed from journals.")
	metricTornTails   = obs.Default().Counter("itree_journal_torn_tails_total", "Journal reads that found a torn final line.")
)

// Kind discriminates event types.
type Kind string

// The event kinds.
const (
	// KindJoin records a new participant (with optional sponsor).
	KindJoin Kind = "join"
	// KindContribute records a contribution increase.
	KindContribute Kind = "contribute"
	// KindQuarantine flags a participant: the whole subtree rooted at
	// the named node is withheld from payout (rewards served as zero)
	// while raw contributions stay intact. Journaled like any other
	// state change so the flag survives crashes and replicates.
	KindQuarantine Kind = "quarantine"
	// KindUnquarantine clears a previously set quarantine flag.
	KindUnquarantine Kind = "unquarantine"
	// KindSettle freezes one epoch of the payout ledger: the record
	// carries the epoch number, the budget pool the epoch accrued, the
	// campaign contribution total the accrual ran up to, and the
	// per-participant reward shares granted against the pool. Settled
	// epochs are immutable history; replay enforces that the shares
	// never exceed the pool (the paper's R(T) ≤ Φ·C(T) constraint,
	// ledger-ized per epoch).
	KindSettle Kind = "settle"
	// KindClaim records a participant collecting their share of one
	// settled epoch. Claims are idempotent per (participant, epoch):
	// replay rejects duplicates, so a crash between append and response
	// cannot double-credit.
	KindClaim Kind = "claim"
)

// RewardShare is one participant's granted share in a settle record.
type RewardShare struct {
	Name   string  `json:"name"`
	Amount float64 `json:"amount"`
}

// Event is one journal entry. Participants are identified by name, as in
// the HTTP API, so logs are stable across id renumbering.
type Event struct {
	Seq     uint64  `json:"seq"`
	Kind    Kind    `json:"kind"`
	Name    string  `json:"name"`
	Sponsor string  `json:"sponsor,omitempty"`
	Amount  float64 `json:"amount,omitempty"`
	// Epoch is the settled epoch a settle or claim record refers to
	// (1-based; zero — and absent from the wire — for other kinds).
	Epoch uint64 `json:"epoch,omitempty"`
	// Pool is the budget accrued by a settle record's epoch: the
	// mechanism share of the contribution delta since the previous
	// settle, plus the carry-over of whatever the previous epoch left
	// unallocated.
	Pool float64 `json:"pool,omitempty"`
	// CTotal is the campaign contribution total C(T) the settle's pool
	// accrual ran up to; the next epoch accrues from here.
	CTotal float64 `json:"ctotal,omitempty"`
	// Rewards is a settle record's frozen share table, strictly
	// ascending by name.
	Rewards []RewardShare `json:"rewards,omitempty"`
}

// Equal reports whether two events are field-wise identical. Event is
// not comparable with == (Rewards is a slice), so tests and replay
// checks use this instead.
func (e Event) Equal(o Event) bool {
	if e.Seq != o.Seq || e.Kind != o.Kind || e.Name != o.Name ||
		e.Sponsor != o.Sponsor || e.Amount != o.Amount ||
		e.Epoch != o.Epoch || e.Pool != o.Pool || e.CTotal != o.CTotal ||
		len(e.Rewards) != len(o.Rewards) {
		return false
	}
	for i, r := range e.Rewards {
		if r != o.Rewards[i] {
			return false
		}
	}
	return true
}

// finitePositive reports a finite, strictly positive float. NaN fails
// every comparison, so `<= 0` alone would wave it (and +Inf) through —
// and NaN/Inf are unencodable as JSON anyway.
func finitePositive(v float64) bool {
	return !math.IsNaN(v) && !math.IsInf(v, 0) && v > 0
}

// Errors Apply reports for an event that names the wrong participant
// state; match with errors.Is.
var (
	// ErrUnknownParticipant reports an event naming nobody.
	ErrUnknownParticipant = errors.New("unknown participant")
	// ErrAlreadyQuarantined reports a redundant quarantine.
	ErrAlreadyQuarantined = errors.New("already quarantined")
	// ErrNotQuarantined reports an unquarantine of an unflagged name.
	ErrNotQuarantined = errors.New("not quarantined")
)

// Validate checks the event's internal consistency, and that its binary
// record fits the decoder's frame bound, so a record the journal could
// not read back is never written.
func (e Event) Validate() error {
	if e.Kind != KindSettle && e.Kind != KindClaim {
		// The ledger fields belong to settle/claim records only; a
		// canonical encoding demands they are absent elsewhere.
		if e.Epoch != 0 || e.Pool != 0 || e.CTotal != 0 || len(e.Rewards) != 0 {
			return fmt.Errorf("journal: %s event carries ledger fields", e.Kind)
		}
	}
	switch e.Kind {
	case KindJoin:
		if e.Name == "" {
			return errors.New("name must not be empty")
		}
		if e.Amount != 0 {
			return errors.New("journal: join event carries an amount")
		}
	case KindContribute:
		// NaN fails every comparison, so `<= 0` alone would wave it (and
		// ±Inf) through.
		if math.IsNaN(e.Amount) || math.IsInf(e.Amount, 0) {
			return fmt.Errorf("amount %v must be finite", e.Amount)
		}
		if e.Amount <= 0 {
			return fmt.Errorf("amount %v must be positive", e.Amount)
		}
		if e.Name == "" {
			return fmt.Errorf("%w %q", ErrUnknownParticipant, "")
		}
	case KindQuarantine, KindUnquarantine:
		if e.Name == "" {
			return fmt.Errorf("%w %q", ErrUnknownParticipant, "")
		}
		if e.Sponsor != "" {
			return fmt.Errorf("journal: %s event carries a sponsor", e.Kind)
		}
		if e.Amount != 0 {
			return fmt.Errorf("journal: %s event carries an amount", e.Kind)
		}
	case KindSettle:
		if e.Name != "" || e.Sponsor != "" || e.Amount != 0 {
			return errors.New("journal: settle event carries participant fields")
		}
		if e.Epoch == 0 {
			return errors.New("journal: settle event without epoch")
		}
		if math.IsNaN(e.Pool) || math.IsInf(e.Pool, 0) || e.Pool < 0 {
			return fmt.Errorf("journal: settle pool %v must be finite and non-negative", e.Pool)
		}
		if math.IsNaN(e.CTotal) || math.IsInf(e.CTotal, 0) || e.CTotal < 0 {
			return fmt.Errorf("journal: settle ctotal %v must be finite and non-negative", e.CTotal)
		}
		prev := ""
		for i, r := range e.Rewards {
			if r.Name == "" {
				return fmt.Errorf("journal: settle share %d without name", i)
			}
			if i > 0 && r.Name <= prev {
				return fmt.Errorf("journal: settle shares not strictly ascending at %q", r.Name)
			}
			prev = r.Name
			if !finitePositive(r.Amount) {
				return fmt.Errorf("journal: settle share for %q is %v, must be finite and positive", r.Name, r.Amount)
			}
		}
	case KindClaim:
		if e.Name == "" {
			return fmt.Errorf("%w %q", ErrUnknownParticipant, "")
		}
		if e.Sponsor != "" {
			return errors.New("journal: claim event carries a sponsor")
		}
		if e.Epoch == 0 {
			return errors.New("journal: claim event without epoch")
		}
		if e.Pool != 0 || e.CTotal != 0 || len(e.Rewards) != 0 {
			return errors.New("journal: claim event carries settle fields")
		}
		if !finitePositive(e.Amount) {
			return fmt.Errorf("journal: claim amount %v must be finite and positive", e.Amount)
		}
	default:
		return fmt.Errorf("journal: unknown event kind %q", e.Kind)
	}
	if n := binaryPayloadSize(e); n > maxBinaryPayload {
		return fmt.Errorf("journal: %s record of %d bytes exceeds the %d-byte record bound", e.Kind, n, maxBinaryPayload)
	}
	return nil
}

// Writer appends events as binary records (see binary.go). It is safe
// for concurrent use.
type Writer struct {
	mu  sync.Mutex
	w   io.Writer
	seq uint64
	buf []byte // encode scratch, reused under mu
}

// NewWriter wraps w. Use nextSeq = 1 for a fresh log, or the successor
// of the last persisted sequence number when appending.
func NewWriter(w io.Writer, nextSeq uint64) *Writer {
	if nextSeq == 0 {
		nextSeq = 1
	}
	return &Writer{w: w, seq: nextSeq}
}

// NewWriterMode is NewWriter for callers that name the record format.
// Binary is the only format a journal holds, so any other mode panics;
// JSON lines are an export form written by NewEncoderMode.
func NewWriterMode(w io.Writer, nextSeq uint64, mode Mode) *Writer {
	if mode != ModeBinary {
		panic(fmt.Sprintf("journal: a Writer appends binary records only, not %v", mode))
	}
	return NewWriter(w, nextSeq)
}

// AppendBatch assigns consecutive sequence numbers to events and writes
// them as records with a single Write to the underlying writer — the
// group-commit primitive: a FileWriter backing jw issues at most one
// fsync for the whole batch, and the bytes are identical to len(events)
// batches of one. Validation and encoding happen before any byte is
// written, and a failed batch leaves the sequence counter untouched;
// the log is untouched too when the underlying writer is all-or-nothing,
// as FileWriter is. It returns the persisted events.
func (jw *Writer) AppendBatch(events []Event) ([]Event, error) {
	if len(events) == 0 {
		return nil, nil
	}
	jw.mu.Lock()
	defer jw.mu.Unlock()
	buf := jw.buf[:0]
	out := make([]Event, len(events))
	for i, e := range events {
		e.Seq = jw.seq + uint64(i)
		var err error
		buf, err = AppendBinaryRecord(buf, e)
		if err != nil {
			return nil, err
		}
		out[i] = e
	}
	jw.buf = buf[:0]
	if _, err := jw.w.Write(buf); err != nil {
		return nil, fmt.Errorf("journal: write: %w", err)
	}
	jw.seq += uint64(len(events))
	metricAppends.Add(uint64(len(events)))
	metricAppendBytes.Add(uint64(len(buf)))
	return out, nil
}

// ErrTornTail reports that the final record of a journal was malformed —
// the signature of a crash mid-append. All complete events before it
// are returned alongside the error, so callers may treat it as a
// recoverable condition. Match with errors.Is; errors.As against
// *TornTailError yields the byte offset to truncate the log at before
// appending again.
var ErrTornTail = errors.New("journal: torn tail")

// TornTailError carries the location of a torn final record.
type TornTailError struct {
	// Offset is the byte offset where the torn record starts: the
	// length of the valid prefix of the log.
	Offset int64
	// Line is the 1-based number of the torn record.
	Line int
	// Cause is the decode or validation error the record produced.
	Cause error
}

func (e *TornTailError) Error() string {
	return fmt.Sprintf("journal: torn tail at record %d (valid prefix %d bytes): %v", e.Line, e.Offset, e.Cause)
}

// Unwrap makes the error match both ErrTornTail and its cause.
func (e *TornTailError) Unwrap() []error { return []error{ErrTornTail, e.Cause} }

// Read decodes all events from r, checking sequence continuity. A
// malformed final record (crash mid-append) is tolerated: Read returns
// every complete event plus a *TornTailError wrapping ErrTornTail.
// Malformed records with events after them (whole records hidden in
// the damaged bytes included), sequence gaps anywhere, and JSON-lines
// records (ErrJSONJournal) remain hard errors — they mean mid-log
// corruption or a log to migrate, not a torn tail.
func Read(r io.Reader) ([]Event, error) {
	d := NewDecoder(r)
	var out []Event
	for {
		e, err := d.Next()
		switch {
		case err == nil:
			out = append(out, e)
		case err == io.EOF:
			return out, nil
		case errors.Is(err, ErrTornTail):
			metricTornTails.Inc()
			return out, err
		default:
			return nil, err
		}
	}
}

// hasContent reports whether anything beyond whitespace and zero bytes
// remains in br. Zero bytes count as empty: a filesystem that loses
// unflushed data after a power cut (ext4 delayed allocation) can leave
// the file's tail zero-filled.
func hasContent(br *bufio.Reader) bool {
	for {
		b, err := br.ReadByte()
		if err != nil {
			return false
		}
		switch b {
		case ' ', '\t', '\r', '\n', 0:
			continue
		default:
			return true
		}
	}
}

// State is a campaign's state. Only Apply and Undo change a live one.
type State struct {
	// Tree is the reconstructed referral tree (labels carry names).
	Tree *tree.Tree
	// ByName maps participant names to node ids.
	ByName map[string]tree.NodeID
	// LastSeq is the sequence number of the last applied event (0 for an
	// empty journal).
	LastSeq uint64
	// Quarantined holds the names whose subtrees are currently withheld
	// from payout.
	Quarantined map[string]bool
	// Ledger holds the settled epochs and claims the journal witnessed.
	Ledger *Ledger
}

// NewState returns the state of an empty campaign.
func NewState() *State {
	return &State{Tree: tree.New(), ByName: make(map[string]tree.NodeID), Quarantined: make(map[string]bool), Ledger: NewLedger()}
}

// Undo is what Apply saved to reverse one event: the values the event
// overwrote, never a delta to subtract, so an apply and its undo leave
// every float bit for bit as it was. It is a value, not a closure, so
// replay, which drops it, allocates nothing for it.
type Undo struct {
	kind Kind
	name string
	seq  uint64    // LastSeq before the event
	mark tree.Mark // a join's tree size before it
	id   tree.NodeID
	// prior is a contribution's prior value, or a claimant's prior
	// claimed amount; claimedSum is the claimed epoch's prior sum.
	prior, claimedSum float64
	epoch             uint64
	settled           []float64 // each settle share's prior SettledOf
}

// Apply checks e against the state and applies it: first Event.Validate,
// then Seq == LastSeq+1, then the kind's preconditions. A failed check
// changes nothing. On success LastSeq is e.Seq and the returned Undo
// reverses the change.
func (st *State) Apply(e Event) (Undo, error) {
	if err := e.Validate(); err != nil {
		return Undo{}, err
	}
	if e.Seq != st.LastSeq+1 {
		return Undo{}, fmt.Errorf("journal: event seq %d does not follow seq %d: missing events, or events out of order", e.Seq, st.LastSeq)
	}
	u := Undo{kind: e.Kind, name: e.Name, seq: st.LastSeq}
	if e.Kind != KindJoin && e.Kind != KindSettle {
		var ok bool
		if u.id, ok = st.ByName[e.Name]; !ok {
			return Undo{}, fmt.Errorf("%w %q", ErrUnknownParticipant, e.Name)
		}
	}
	switch e.Kind {
	case KindJoin:
		if _, dup := st.ByName[e.Name]; dup {
			return Undo{}, fmt.Errorf("participant %q already exists", e.Name)
		}
		parent := tree.Root
		if e.Sponsor != "" {
			p, ok := st.ByName[e.Sponsor]
			if !ok {
				return Undo{}, fmt.Errorf("unknown sponsor %q", e.Sponsor)
			}
			parent = p
		}
		u.mark = st.Tree.Mark()
		id, err := st.Tree.Add(parent, 0)
		if err != nil {
			return Undo{}, err
		}
		// The node was just added, so labelling it cannot fail.
		_ = st.Tree.SetLabel(id, e.Name)
		st.ByName[e.Name] = id
	case KindContribute:
		u.prior = st.Tree.Contribution(u.id)
		if err := st.Tree.AddContribution(u.id, e.Amount); err != nil {
			return Undo{}, err
		}
	case KindQuarantine:
		if st.Quarantined[e.Name] {
			return Undo{}, fmt.Errorf("participant %q is %w", e.Name, ErrAlreadyQuarantined)
		}
		st.Quarantined[e.Name] = true
	case KindUnquarantine:
		if !st.Quarantined[e.Name] {
			return Undo{}, fmt.Errorf("participant %q is %w", e.Name, ErrNotQuarantined)
		}
		delete(st.Quarantined, e.Name)
	case KindSettle:
		u.settled = make([]float64, len(e.Rewards))
		for i, r := range e.Rewards {
			if _, ok := st.ByName[r.Name]; !ok {
				return Undo{}, fmt.Errorf("journal: settle share for unknown %q", r.Name)
			}
			u.settled[i] = st.Ledger.SettledOf(r.Name)
		}
		if err := st.Ledger.ApplySettle(e); err != nil {
			return Undo{}, err
		}
	case KindClaim:
		u.epoch, u.prior, u.claimedSum = e.Epoch, st.Ledger.ClaimedOf(e.Name), st.Ledger.ClaimedAmount(e.Epoch)
		if err := st.Ledger.ApplyClaim(e); err != nil {
			return Undo{}, err
		}
	}
	st.LastSeq = e.Seq
	return u, nil
}

// Undo reverses the event whose Apply returned u. Undo records must be
// reversed newest first, each on the state its event left.
func (st *State) Undo(u Undo) {
	switch u.kind {
	case KindJoin:
		delete(st.ByName, u.name)
		// The mark predates the join, so it is in range.
		_ = st.Tree.ResetTo(u.mark)
	case KindContribute:
		// A saved value of an existing node cannot fail.
		_ = st.Tree.SetContribution(u.id, u.prior)
	case KindQuarantine:
		delete(st.Quarantined, u.name)
	case KindUnquarantine:
		st.Quarantined[u.name] = true
	case KindSettle:
		st.Ledger.undoSettle(u.settled)
	case KindClaim:
		st.Ledger.undoClaim(u.epoch, u.name, u.prior, u.claimedSum)
	}
	st.LastSeq = u.seq
}

// Replay applies events (in order) on top of an optional base state,
// in place. Pass nil to start from an empty campaign.
func Replay(base *State, events []Event) (*State, error) {
	st := base
	if st == nil {
		st = NewState()
	}
	for _, e := range events {
		if _, err := st.Apply(e); err != nil {
			return nil, fmt.Errorf("journal: seq %d: %w", e.Seq, err)
		}
		metricReplays.Inc()
	}
	return st, nil
}
