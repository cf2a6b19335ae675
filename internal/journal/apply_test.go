package journal

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"
)

// fuzzNames is the participant alphabet of FuzzApplyUndo's streams.
var fuzzNames = []string{"a", "b", "c", "d", "e", "f"}

// fuzzEvent builds one event from three fuzzed bytes, reading the state
// so that settles and claims are often valid: a settle usually carries
// the next epoch and shares its pool can pay, and a claim usually the
// exact share it names.
func fuzzEvent(st *State, k, x, y byte) Event {
	name := fuzzNames[int(x)%len(fuzzNames)]
	switch k % 6 {
	case 0:
		sponsor := ""
		if y != 0 {
			sponsor = fuzzNames[int(y-1)%len(fuzzNames)]
		}
		return Event{Kind: KindJoin, Name: name, Sponsor: sponsor}
	case 1:
		return Event{Kind: KindContribute, Name: name, Amount: float64(y) / 8}
	case 2:
		return Event{Kind: KindQuarantine, Name: name}
	case 3:
		return Event{Kind: KindUnquarantine, Name: name}
	case 4:
		cPrev, carry := st.Ledger.AccrualBasis()
		e := Event{Kind: KindSettle, Epoch: st.Ledger.NextEpoch() + uint64(x>>6), CTotal: cPrev + float64(y%16), Pool: carry + float64(y)/4}
		var picked []string
		for i, n := range fuzzNames {
			if x>>i&1 == 1 {
				picked = append(picked, n)
			}
		}
		if e.Pool > 0 {
			for _, n := range picked {
				e.Rewards = append(e.Rewards, RewardShare{Name: n, Amount: e.Pool / float64(len(picked)+1)})
			}
		}
		return e
	default:
		epoch := uint64(1 + int(y)%max(1, st.Ledger.Epochs()))
		amount, ok := st.Ledger.Share(epoch, name)
		if !ok {
			amount = 1
		}
		return Event{Kind: KindClaim, Name: name, Epoch: epoch, Amount: amount}
	}
}

// applyFuzzed applies the events data encodes, three bytes each, at the
// next seq (or, when the kind byte's top bit is set, a stale one), and
// collects the undo records of the ones that applied.
func applyFuzzed(st *State, data []byte) []Undo {
	var undos []Undo
	for ; len(data) >= 3; data = data[3:] {
		e := fuzzEvent(st, data[0], data[1], data[2])
		e.Seq = st.LastSeq + 1
		if data[0]&0x80 != 0 {
			e.Seq = st.LastSeq
		}
		if u, err := st.Apply(e); err == nil {
			undos = append(undos, u)
		}
	}
	return undos
}

// dumpState renders every part of st bit for bit: the tree's binary
// bytes, the last seq, the name index, the quarantine set, and every
// ledger view — the settled epochs, each name's cumulative settled and
// claimed amounts, and each epoch's settled, claimed and carried sums.
func dumpState(st *State) string {
	var b strings.Builder
	b.Write(st.Tree.AppendBinary(nil))
	fmt.Fprintf(&b, "|seq %d|", st.LastSeq)
	for _, n := range fuzzNames {
		id, ok := st.ByName[n]
		fmt.Fprintf(&b, "%s=%d/%v/%v,", n, id, ok, st.Quarantined[n])
	}
	fmt.Fprintf(&b, "|%d names, %d flags|", len(st.ByName), len(st.Quarantined))
	l := st.Ledger
	bits := math.Float64bits
	for _, n := range fuzzNames {
		fmt.Fprintf(&b, "%s:%x/%x,", n, bits(l.SettledOf(n)), bits(l.ClaimedOf(n)))
	}
	for n := uint64(1); n <= uint64(l.Epochs())+1; n++ {
		fmt.Fprintf(&b, "%d:%x/%x/%x,", n, bits(l.SettledAmount(n)), bits(l.ClaimedAmount(n)), bits(l.CarryOut(n)))
	}
	for _, se := range l.Snapshot() {
		fmt.Fprintf(&b, "|epoch %d %x %x", se.Epoch, bits(se.Pool), bits(se.CTotal))
		for _, r := range se.Rewards {
			fmt.Fprintf(&b, " %s=%x", r.Name, bits(r.Amount))
		}
		fmt.Fprintf(&b, " claimed %v", se.Claimed)
	}
	return b.String()
}

// FuzzApplyUndo: applying a fuzzed batch on a fuzzed state and undoing
// the applied events newest first restores the state bit for bit,
// whatever the batch holds — refused events included, since a refused
// Apply must change nothing.
func FuzzApplyUndo(f *testing.F) {
	// a joins, b joins under a, c under b; all contribute; epoch 1
	// settles shares for a and b; a claims.
	prefix := []byte{0, 0, 0, 0, 1, 1, 0, 2, 2, 1, 0, 8, 1, 1, 16, 1, 2, 24, 4, 3, 40, 5, 0, 0}
	// A contribution, a join, a quarantine, epoch 2 for a, b and c,
	// claims on both epochs, an unquarantine, another contribution.
	f.Add(prefix, []byte{1, 0, 4, 0, 3, 3, 2, 1, 0, 4, 7, 20, 5, 1, 1, 5, 2, 1, 3, 1, 0, 5, 1, 0, 1, 3, 9})
	// Refusals between successes: a duplicate join, an unknown
	// contributor, a stale seq, a settle of the wrong epoch, a double
	// claim.
	f.Add(prefix, []byte{0, 0, 0, 1, 4, 8, 0x82, 1, 0, 4, 0x43, 8, 5, 0, 0, 5, 1, 0, 1, 1, 3})
	f.Fuzz(func(t *testing.T, prefix, batch []byte) {
		st := NewState()
		applyFuzzed(st, prefix)
		before := dumpState(st)
		undos := applyFuzzed(st, batch)
		for _, u := range slices.Backward(undos) {
			st.Undo(u)
		}
		if after := dumpState(st); after != before {
			t.Fatalf("apply then undo of %d events changed the state:\n before %q\n after  %q", len(undos), before, after)
		}
	})
}
