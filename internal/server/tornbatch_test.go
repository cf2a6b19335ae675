package server

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"io"
	"strings"
	"testing"

	"incentivetree/internal/journal"
)

// tornWriter passes writes through until torn is set; from then on it
// persists only a fragment of the first record of each write before
// failing — the disk-full-mid-write shape, which leaves a torn tail on
// disk rather than the clean nothing that failWriter models.
type tornWriter struct {
	w    io.Writer
	torn bool
}

func (tw *tornWriter) Write(p []byte) (int, error) {
	if !tw.torn {
		return tw.w.Write(p)
	}
	// Stay inside the first record (tag, length prefix, payload, CRC):
	// no complete event may land.
	plen, n := binary.Uvarint(p[1:])
	cut := (1 + n + int(plen) + 4) / 2
	tw.w.Write(p[:cut])
	return cut, errors.New("injected torn write")
}

// TestAppendBatchTornWriteReplayIdentity injects a mid-batch journal
// failure that leaves partial bytes on disk and checks the recovery
// contract end to end: the server rolls the whole batch back, the
// journal reads back as a torn tail (not corruption), and a fresh
// replay of the surviving bytes rebuilds a tree byte-identical to the
// in-memory one — before and after the log is truncated and healed.
func TestAppendBatchTornWriteReplayIdentity(t *testing.T) {
	for _, arm := range rollbackArms {
		t.Run(arm.name, func(t *testing.T) {
			var buf bytes.Buffer
			tw := &tornWriter{w: &buf}
			s := New(suiteMechanism(t, arm.mechanism), WithJournal(journal.NewWriter(tw, 1)))
			for _, op := range []journal.Event{
				{Kind: journal.KindJoin, Name: "ada"},
				{Kind: journal.KindJoin, Name: "bob", Sponsor: "ada"},
				{Kind: journal.KindContribute, Name: "ada", Amount: 1.5},
				{Kind: journal.KindContribute, Name: "bob", Amount: 0.25},
			} {
				for _, r := range s.applyBatch([]journal.Event{op}) {
					if r.err != nil {
						t.Fatal(r.err)
					}
				}
			}

			tw.torn = true
			results := s.applyBatch([]journal.Event{
				{Kind: journal.KindJoin, Name: "carol", Sponsor: "bob"},
				{Kind: journal.KindContribute, Name: "ada", Amount: 7},
			})
			for i, r := range results {
				if r.err == nil || !strings.Contains(r.err.Error(), "journal append") {
					t.Fatalf("batch result %d = %v, want journal append error", i, r.err)
				}
			}
			if _, err := s.participant("carol"); err == nil {
				t.Fatal("carol exists after torn batch")
			}

			// The on-disk log now ends in a torn line. Read must classify
			// it as a recoverable torn tail, and replaying the complete
			// prefix must reproduce the rolled-back in-memory tree
			// byte for byte.
			events, readErr := journal.Read(bytes.NewReader(buf.Bytes()))
			var tte *journal.TornTailError
			if !errors.As(readErr, &tte) {
				t.Fatalf("Read after torn write = %v, want *TornTailError", readErr)
			}
			assertReplayMatches(t, s, events)

			// Crash-recovery truncates at the torn offset; after that the
			// same writer (its sequence counter untouched by the failed
			// batch) appends cleanly and the identity still holds.
			buf.Truncate(int(tte.Offset))
			tw.torn = false
			if err := s.Join("carol", "bob"); err != nil {
				t.Fatalf("join after truncation: %v", err)
			}
			if err := s.Contribute("carol", 3); err != nil {
				t.Fatal(err)
			}
			events, readErr = journal.Read(bytes.NewReader(buf.Bytes()))
			if readErr != nil {
				t.Fatalf("journal unreadable after heal: %v", readErr)
			}
			assertReplayMatches(t, s, events)
		})
	}
}

// assertReplayMatches replays events from scratch and requires the
// rebuilt tree to marshal to exactly the server's current tree, whose
// served rewards equal full evaluation bit for bit.
func assertReplayMatches(t *testing.T, s *Server, events []journal.Event) {
	t.Helper()
	assertServedMatches(t, s)
	st, err := journal.Replay(nil, events)
	if err != nil {
		t.Fatal(err)
	}
	snap := s.SnapshotState()
	if snap.LastSeq != st.LastSeq {
		t.Fatalf("server lastSeq %d != replayed %d", snap.LastSeq, st.LastSeq)
	}
	got, err := json.Marshal(snap.Tree)
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(st.Tree)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("in-memory tree diverges from fresh replay:\n mem: %s\nlog: %s", got, want)
	}
}
