package journal

import (
	"fmt"
	"math"
	"slices"
	"strings"
)

// The payout ledger. Settlement converts the continuously-recomputed
// reward table into immutable per-epoch history: each settle record
// freezes the shares granted against that epoch's budget pool, and
// each claim record marks one (participant, epoch) share as paid out.
// The Ledger is the replayed view of those records — it lives in this
// package, next to Quarantined, because it is journal state: every
// recovery path (checkpoint restore, kill -9 replay, follower
// bootstrap) rebuilds it through ApplySettle/ApplyClaim and therefore
// re-checks the same invariants the primary enforced at append time:
//
//   - epochs settle in order (epoch n+1 follows n, CTotal never
//     regresses);
//   - the shares of an epoch, subtracted sequentially in record order,
//     never overdraw its pool — the paper's R(T) ≤ Φ·C(T) budget
//     constraint as a per-epoch ledger invariant;
//   - a claim names a settled share, matches its amount bit for bit,
//     and is unique per (participant, epoch).
//
// Carry-over is derived, not stored: the pool minus the sequential sum
// of the shares is what the next epoch starts from. Deriving it from
// the record (rather than journaling it) keeps a single source of
// truth, and the sequential subtraction order makes the float result
// identical on every replica.
//
// Settle computes the record of the next epoch from the served reward
// table, and ApplySettle re-runs its draw-down: the one settlement
// rule, in one place.

// SettledEpoch is one frozen epoch as carried in snapshots and served
// over HTTP. Rewards is strictly ascending by name; Claimed holds the
// claimants in journal arrival order (so snapshot encoding is
// deterministic and byte-stable across recovery paths).
type SettledEpoch struct {
	Epoch   uint64        `json:"epoch"`
	Pool    float64       `json:"pool"`
	CTotal  float64       `json:"ctotal"`
	Rewards []RewardShare `json:"rewards,omitempty"`
	Claimed []string      `json:"claimed,omitempty"`
}

// Ledger is the replayed settle/claim state of one campaign. Not safe
// for concurrent use; the server guards it with its state lock. A live
// ledger changes only through State.Apply and State.Undo.
type Ledger struct {
	epochs []SettledEpoch
	// Per-epoch derived views, indexed epoch-1.
	shares     []map[string]float64 // name → granted share
	claimedSet []map[string]bool    // names already claimed
	carry      []float64            // pool minus sequential share sum
	settledSum []float64            // sequential share sum
	claimedSum []float64            // sequential claimed-amount sum
	// Cumulative per-participant accounting across all epochs, updated
	// in journal order.
	settledBy map[string]float64
	claimedBy map[string]float64
}

// NewLedger returns an empty ledger (no settled epochs).
func NewLedger() *Ledger {
	return &Ledger{settledBy: make(map[string]float64), claimedBy: make(map[string]float64)}
}

// Epochs reports the number of settled epochs.
func (l *Ledger) Epochs() int { return len(l.epochs) }

// NextEpoch is the epoch number the next settle must carry.
func (l *Ledger) NextEpoch() uint64 { return uint64(len(l.epochs)) + 1 }

// Epoch returns the settled epoch n (1-based). The returned value
// shares its slices with the ledger; callers must treat it as
// read-only.
func (l *Ledger) Epoch(n uint64) (SettledEpoch, bool) {
	if n == 0 || n > uint64(len(l.epochs)) {
		return SettledEpoch{}, false
	}
	return l.epochs[n-1], true
}

// AccrualBasis returns the contribution total the last settle ran up
// to and the carry-over it left unallocated — the basis the next
// epoch's pool accrues from. Both are zero for a fresh ledger.
func (l *Ledger) AccrualBasis() (cPrev, carry float64) {
	if len(l.epochs) == 0 {
		return 0, 0
	}
	n := len(l.epochs) - 1
	return l.epochs[n].CTotal, l.carry[n]
}

// SettledOf returns the cumulative amount settled to name across all
// epochs.
func (l *Ledger) SettledOf(name string) float64 { return l.settledBy[name] }

// ClaimedOf returns the cumulative amount name has claimed.
func (l *Ledger) ClaimedOf(name string) float64 { return l.claimedBy[name] }

// Share returns name's granted share in epoch n, if any.
func (l *Ledger) Share(n uint64, name string) (float64, bool) {
	if n == 0 || n > uint64(len(l.epochs)) {
		return 0, false
	}
	amt, ok := l.shares[n-1][name]
	return amt, ok
}

// HasClaimed reports whether name already claimed its share of epoch n.
func (l *Ledger) HasClaimed(n uint64, name string) bool {
	if n == 0 || n > uint64(len(l.epochs)) {
		return false
	}
	return l.claimedSet[n-1][name]
}

// SettledAmount returns the sequential sum of epoch n's shares (0 for
// unknown epochs).
func (l *Ledger) SettledAmount(n uint64) float64 {
	if n == 0 || n > uint64(len(l.epochs)) {
		return 0
	}
	return l.settledSum[n-1]
}

// ClaimedAmount returns the sequential sum of epoch n's claimed shares.
func (l *Ledger) ClaimedAmount(n uint64) float64 {
	if n == 0 || n > uint64(len(l.epochs)) {
		return 0
	}
	return l.claimedSum[n-1]
}

// CarryOut returns what epoch n left unallocated (derived: pool minus
// sequential share sum).
func (l *Ledger) CarryOut(n uint64) float64 {
	if n == 0 || n > uint64(len(l.epochs)) {
		return 0
	}
	return l.carry[n-1]
}

// Settle builds the settle record of the next epoch; it changes
// nothing. The epoch's pool accrues frac (the mechanism's Φ) per unit
// of contribution growth since the last settle, up to cNow = C(T), plus
// what the last epoch left unallocated. served is the reward table as
// the API serves it, quarantined subtrees already masked to zero, so a
// quarantine in force keeps its subtree out of the epoch; Settle sorts
// it by name in place. In that order each participant is granted the
// growth of their served reward beyond everything settled to them
// before, capped at what the pool has left; capped counts the grants
// the cap cut or dropped. A reward that fell grants nothing and claws
// nothing back. The pool is drawn down by the same sequential
// subtraction ApplySettle re-runs over the record's shares, so the two
// agree bit for bit. ok is false when there is nothing to settle (no
// contribution growth and no grant): no epoch is created, and the
// would-be pool stays in the accrual basis.
func (l *Ledger) Settle(frac, cNow float64, served []RewardShare) (e Event, capped int, ok bool) {
	cPrev, carry := l.AccrualBasis()
	accrued := frac * (cNow - cPrev)
	if !(accrued > 0) { // negative or NaN: accrue nothing
		accrued = 0
	}
	pool := accrued + carry
	remaining := pool
	slices.SortFunc(served, func(a, b RewardShare) int { return strings.Compare(a.Name, b.Name) })
	var shares []RewardShare
	for _, r := range served {
		delta := r.Amount - l.settledBy[r.Name]
		if !(delta > 0) || math.IsInf(delta, 0) {
			continue
		}
		grant := delta
		if grant > remaining {
			grant = remaining
			capped++
		}
		if !(grant > 0) {
			continue
		}
		// A grant that empties the pool leaves remaining at exactly
		// zero here and in ApplySettle.
		remaining -= grant
		shares = append(shares, RewardShare{Name: r.Name, Amount: grant})
	}
	if len(shares) == 0 && cNow == cPrev {
		return Event{}, capped, false
	}
	return Event{Kind: KindSettle, Epoch: l.NextEpoch(), Pool: pool, CTotal: cNow, Rewards: shares}, capped, true
}

// ApplySettle validates and applies one settle event.
func (l *Ledger) ApplySettle(e Event) error {
	if e.Kind != KindSettle {
		return fmt.Errorf("journal: ApplySettle on %s event", e.Kind)
	}
	if err := e.Validate(); err != nil {
		return err
	}
	if e.Epoch != l.NextEpoch() {
		return fmt.Errorf("journal: settle of epoch %d out of order (next is %d)", e.Epoch, l.NextEpoch())
	}
	if cPrev, _ := l.AccrualBasis(); e.CTotal < cPrev {
		return fmt.Errorf("journal: settle ctotal %v regresses below %v", e.CTotal, cPrev)
	}
	// The budget invariant: subtracting the shares sequentially in
	// record order must never overdraw the pool. The same loop, in the
	// same order, computes the carry on every replica — no independent
	// re-summation that could disagree in the last ulp.
	remaining := e.Pool
	sum := 0.0
	shares := make(map[string]float64, len(e.Rewards))
	for _, r := range e.Rewards {
		remaining -= r.Amount
		sum += r.Amount
		if remaining < 0 {
			return fmt.Errorf("journal: settle of epoch %d overdraws pool %v at share %q", e.Epoch, e.Pool, r.Name)
		}
		shares[r.Name] = r.Amount
	}
	rewards := make([]RewardShare, len(e.Rewards))
	copy(rewards, e.Rewards)
	l.epochs = append(l.epochs, SettledEpoch{Epoch: e.Epoch, Pool: e.Pool, CTotal: e.CTotal, Rewards: rewards})
	l.shares = append(l.shares, shares)
	l.claimedSet = append(l.claimedSet, make(map[string]bool))
	l.carry = append(l.carry, remaining)
	l.settledSum = append(l.settledSum, sum)
	l.claimedSum = append(l.claimedSum, 0)
	for _, r := range rewards {
		l.settledBy[r.Name] += r.Amount
	}
	return nil
}

// ApplyClaim validates and applies one claim event.
func (l *Ledger) ApplyClaim(e Event) error {
	if e.Kind != KindClaim {
		return fmt.Errorf("journal: ApplyClaim on %s event", e.Kind)
	}
	if err := e.Validate(); err != nil {
		return err
	}
	if e.Epoch > uint64(len(l.epochs)) {
		return fmt.Errorf("journal: claim against unsettled epoch %d", e.Epoch)
	}
	i := e.Epoch - 1
	share, ok := l.shares[i][e.Name]
	if !ok {
		return fmt.Errorf("journal: claim by %q with no share in epoch %d", e.Name, e.Epoch)
	}
	if l.claimedSet[i][e.Name] {
		return fmt.Errorf("journal: duplicate claim by %q for epoch %d", e.Name, e.Epoch)
	}
	if e.Amount != share {
		return fmt.Errorf("journal: claim by %q for epoch %d carries %v, share is %v", e.Name, e.Epoch, e.Amount, share)
	}
	l.claimedSet[i][e.Name] = true
	l.epochs[i].Claimed = append(l.epochs[i].Claimed, e.Name)
	l.claimedSum[i] += e.Amount
	l.claimedBy[e.Name] += e.Amount
	return nil
}

// undoSettle removes the newest epoch and puts back each of its
// shares' prior cumulative settled amount (prior[i] for share i).
func (l *Ledger) undoSettle(prior []float64) {
	n := len(l.epochs) - 1
	for i, r := range l.epochs[n].Rewards {
		l.settledBy[r.Name] = prior[i]
	}
	l.epochs = l.epochs[:n]
	l.shares = l.shares[:n]
	l.claimedSet = l.claimedSet[:n]
	l.carry = l.carry[:n]
	l.settledSum = l.settledSum[:n]
	l.claimedSum = l.claimedSum[:n]
}

// undoClaim removes epoch's newest claim, by name, and puts back the
// epoch's prior claimed sum and name's prior cumulative claimed amount.
func (l *Ledger) undoClaim(epoch uint64, name string, prior, claimedSum float64) {
	i := epoch - 1
	delete(l.claimedSet[i], name)
	l.epochs[i].Claimed = l.epochs[i].Claimed[:len(l.epochs[i].Claimed)-1]
	l.claimedSum[i] = claimedSum
	l.claimedBy[name] = prior
}

// Snapshot returns a deep copy of the settled epochs, safe to hold
// after the ledger's lock is released (the checkpointer serializes it
// asynchronously). Nil for an empty ledger, so JSON snapshots of
// pre-settlement campaigns are byte-identical to older releases.
func (l *Ledger) Snapshot() []SettledEpoch {
	if len(l.epochs) == 0 {
		return nil
	}
	out := make([]SettledEpoch, len(l.epochs))
	for i, se := range l.epochs {
		cp := se
		cp.Rewards = append([]RewardShare(nil), se.Rewards...)
		cp.Claimed = append([]string(nil), se.Claimed...)
		out[i] = cp
	}
	return out
}

// LedgerFromEpochs rebuilds a ledger from snapshot data, re-checking
// every invariant by replaying each epoch through the same apply path
// the journal uses. A snapshot that violates the budget or claim rules
// is corrupt and rejected.
func LedgerFromEpochs(epochs []SettledEpoch) (*Ledger, error) {
	l := NewLedger()
	for _, se := range epochs {
		ev := Event{Kind: KindSettle, Epoch: se.Epoch, Pool: se.Pool, CTotal: se.CTotal, Rewards: se.Rewards}
		if err := l.ApplySettle(ev); err != nil {
			return nil, err
		}
		for _, name := range se.Claimed {
			amt, ok := l.Share(se.Epoch, name)
			if !ok {
				return nil, fmt.Errorf("journal: snapshot claim by %q with no share in epoch %d", name, se.Epoch)
			}
			if err := l.ApplyClaim(Event{Kind: KindClaim, Name: name, Epoch: se.Epoch, Amount: amt}); err != nil {
				return nil, err
			}
		}
	}
	return l, nil
}
