package server

import (
	"bytes"
	"fmt"
	"testing"

	"incentivetree/internal/experiments"
	"incentivetree/internal/journal"
)

// FuzzServedRewardsMatchEvaluation decodes bytes into a mechanism and a
// stream of joins, contributions, quarantines, unquarantines, batch
// boundaries and journal failures, and checks that commit views match
// the masked full evaluation bit for bit after every batch, and that
// participant views, /v1/rewards and the full leaderboard match it
// after most batches. A read may follow several batches and flips,
// so a read view is built across all of them at once. At the end, a
// server recovered from a mid-stream snapshot plus the journal must
// serve the same bytes.
//
// Input layout: byte 0 picks the mechanism; then each op is two bytes,
// (k, x). k%8 selects the op: 0-1 join (sponsor x), 2-3 contribute
// (participant x, amount k/8), 4 quarantine x, 5 unquarantine x (each
// read back unless k&8 is set), 6 batch boundary (read back unless x
// is odd), 7 toggle journal failure. A flip commits the pending batch
// first.
func FuzzServedRewardsMatchEvaluation(f *testing.F) {
	for i := range experiments.MechanismNames() {
		f.Add([]byte{byte(i),
			0, 0, 0, 1, 10, 1, 6, 0, // two joins, commit
			0x52, 1, 0xfa, 2, 1, 0, 6, 0, // two contributions and a join, commit
			4, 1, 0x9b, 3, 6, 0, // quarantine, contribute, commit
			7, 0, 0, 2, 0x23, 1, 6, 0, 5, 1, 7, 0, // journal failure: batch and unquarantine roll back
			8, 2, 0xfb, 4, 6, 0, 5, 1, 0x43, 0, 6, 0, // heal; unquarantine
		})
		f.Add([]byte{byte(i),
			0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 6, 0, // eight joins, commit
			4, 0, 0, 0, 6, 1, // quarantine p0; join below it, commit unread
			0x52, 1, 0, 8, 6, 3, // contribute, join below p8, commit unread
			0x1a, 8, 6, 0, // contribute below p0, commit: one read spans three commits
			0x0d, 0, 0x1a, 4, 6, 1, 0x13, 0, 6, 0, // unquarantine unread, commit unread: the mid-stream snapshot's read spans both
			0x52, 1, 0x1a, 3, 6, 1, 0x13, 2, 0x0b, 4, 6, 0, // two commits, one read
			0x52, 5, 6, 1, 0x1a, 6, 6, 1, 0x13, 7, 6, 0, // three commits, one read
			0x0c, 1, 0x1a, 2, 6, 1, 0x13, 3, 6, 0, // quarantine p1 unread, two commits, one read
		})
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 1 || len(data) > 512 {
			return
		}
		names := experiments.MechanismNames()
		mech := suiteMechanism(t, names[int(data[0])%len(names)])
		var log bytes.Buffer
		fw := &failWriter{w: &log}
		s := New(mech, WithJournal(journal.NewWriter(fw, 1)))
		var (
			members []string
			batch   []journal.Event
			snap    *journal.Snapshot
			joins   int
		)
		commit := func(read bool) {
			for i, r := range applyChecked(t, s, batch...) {
				if r.err == nil && batch[i].Kind == journal.KindJoin {
					members = append(members, batch[i].Name)
				}
			}
			batch = batch[:0]
			if read {
				assertServedMatches(t, s)
			}
		}
		ops := data[1:]
		for i := 0; i+1 < len(ops); i += 2 {
			k, x := ops[i], int(ops[i+1])
			switch k % 8 {
			case 0, 1:
				op := journal.Event{Kind: journal.KindJoin, Name: fmt.Sprintf("p%d", joins)}
				joins++
				if n := x % (len(members) + 1); n < len(members) {
					op.Sponsor = members[n]
				}
				batch = append(batch, op)
			case 2, 3:
				if len(members) > 0 {
					batch = append(batch, journal.Event{Kind: journal.KindContribute, Name: members[x%len(members)], Amount: float64(k) / 8})
				}
			case 4, 5:
				if len(members) > 0 {
					commit(false)
					if k%8 == 4 {
						_ = s.Quarantine(members[x%len(members)])
					} else {
						_ = s.Unquarantine(members[x%len(members)])
					}
					if k&8 == 0 {
						assertServedMatches(t, s)
					}
				}
			case 6:
				commit(x%2 == 0)
			case 7:
				fw.fail = !fw.fail
			}
			if snap == nil && i >= len(ops)/2 {
				commit(true)
				st := s.SnapshotState()
				snap = &st
			}
		}
		commit(true)
		events, err := journal.Read(bytes.NewReader(log.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		rec := New(mech)
		if err := Recover(rec, snap, events); err != nil {
			t.Fatal(err)
		}
		assertServedMatches(t, rec)
		for _, path := range []string{"/v1/rewards", "/v1/leaderboard?k=20"} {
			if got, want := body(t, rec, path), body(t, s, path); !bytes.Equal(got, want) {
				t.Fatalf("recovered %s differs:\n got  %s\n want %s", path, got, want)
			}
		}
	})
}
