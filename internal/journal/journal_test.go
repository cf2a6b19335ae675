package journal

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"hash/crc32"
	"strings"
	"sync"
	"testing"

	"incentivetree/internal/tree"
)

// appendOne appends e as a batch of one and returns the persisted event.
func appendOne(w *Writer, e Event) (Event, error) {
	out, err := w.AppendBatch([]Event{e})
	if err != nil {
		return Event{}, err
	}
	return out[0], nil
}

func TestEventValidate(t *testing.T) {
	tests := []struct {
		name    string
		e       Event
		wantErr bool
	}{
		{"valid join", Event{Seq: 1, Kind: KindJoin, Name: "a"}, false},
		{"valid sponsored join", Event{Seq: 1, Kind: KindJoin, Name: "b", Sponsor: "a"}, false},
		{"valid contribute", Event{Seq: 1, Kind: KindContribute, Name: "a", Amount: 2}, false},
		{"join without name", Event{Seq: 1, Kind: KindJoin}, true},
		{"join with amount", Event{Seq: 1, Kind: KindJoin, Name: "a", Amount: 1}, true},
		{"contribute without name", Event{Seq: 1, Kind: KindContribute, Amount: 1}, true},
		{"contribute zero", Event{Seq: 1, Kind: KindContribute, Name: "a"}, true},
		{"contribute negative", Event{Seq: 1, Kind: KindContribute, Name: "a", Amount: -1}, true},
		{"unknown kind", Event{Seq: 1, Kind: "frobnicate", Name: "a"}, true},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			if err := tc.e.Validate(); (err != nil) != tc.wantErr {
				t.Fatalf("Validate() = %v, wantErr %v", err, tc.wantErr)
			}
		})
	}
}

func TestWriterAssignsSequence(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf, 0)
	e1, err := appendOne(w, Event{Kind: KindJoin, Name: "a"})
	if err != nil {
		t.Fatal(err)
	}
	e2, err := appendOne(w, Event{Kind: KindContribute, Name: "a", Amount: 1})
	if err != nil {
		t.Fatal(err)
	}
	if e1.Seq != 1 || e2.Seq != 2 {
		t.Fatalf("sequences = %d, %d", e1.Seq, e2.Seq)
	}
	events, err := Read(&buf)
	if err != nil || len(events) != 2 || !events[1].Equal(e2) {
		t.Fatalf("log holds %+v, %v; want the 2 appended events", events, err)
	}
}

func TestWriterRejectsInvalid(t *testing.T) {
	w := NewWriter(&bytes.Buffer{}, 1)
	if _, err := appendOne(w, Event{Kind: KindContribute, Name: "a", Amount: -1}); err == nil {
		t.Fatal("invalid event should be rejected")
	}
	// Sequence not consumed by the failed append.
	e, err := appendOne(w, Event{Kind: KindJoin, Name: "a"})
	if err != nil {
		t.Fatal(err)
	}
	if e.Seq != 1 {
		t.Fatalf("seq = %d, want 1", e.Seq)
	}
}

func TestWriterConcurrentAppends(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf, 1)
	var wg sync.WaitGroup
	for i := 0; i < 50; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := appendOne(w, Event{Kind: KindJoin, Name: "x"}); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	// All 50 lines present with distinct, gap-free sequences. (The log
	// itself has duplicate names; Read only checks sequencing.)
	events, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 50 {
		t.Fatalf("events = %d", len(events))
	}
}

func TestReadRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf, 1)
	want := []Event{
		{Kind: KindJoin, Name: "ada"},
		{Kind: KindJoin, Name: "bo", Sponsor: "ada"},
		{Kind: KindContribute, Name: "bo", Amount: 2.5},
	}
	for _, e := range want {
		if _, err := appendOne(w, e); err != nil {
			t.Fatal(err)
		}
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("events = %d", len(got))
	}
	if got[2].Amount != 2.5 || got[1].Sponsor != "ada" {
		t.Fatalf("round trip mismatch: %+v", got)
	}
}

func TestReadDetectsGapsAndGarbage(t *testing.T) {
	gap := cat(rec(t, Event{Seq: 1, Kind: KindJoin, Name: "a"}), rec(t, Event{Seq: 3, Kind: KindJoin, Name: "b"}))
	if _, err := Read(bytes.NewReader(gap)); err == nil {
		t.Fatal("sequence gap should be detected")
	}
	if _, err := Read(strings.NewReader("not a record\n")); err == nil {
		t.Fatal("garbage should be rejected")
	}
	// Blank lines are tolerated.
	ok := cat(rec(t, Event{Seq: 1, Kind: KindJoin, Name: "a"}), []byte("\n\n"))
	if _, err := Read(bytes.NewReader(ok)); err != nil {
		t.Fatalf("blank line rejected: %v", err)
	}
}

func TestReadTornTail(t *testing.T) {
	full := cat(rec(t, Event{Seq: 1, Kind: KindJoin, Name: "ada"}),
		rec(t, Event{Seq: 2, Kind: KindContribute, Name: "ada", Amount: 2}))
	third := rec(t, Event{Seq: 3, Kind: KindContribute, Name: "ada", Amount: 1})
	torn := cat(full, third[:7])
	events, err := Read(bytes.NewReader(torn))
	if !errors.Is(err, ErrTornTail) {
		t.Fatalf("err = %v, want ErrTornTail", err)
	}
	if len(events) != 2 || events[1].Amount != 2 {
		t.Fatalf("events = %+v, want the 2 complete ones", events)
	}
	var tt *TornTailError
	if !errors.As(err, &tt) {
		t.Fatalf("err %v is not a *TornTailError", err)
	}
	if tt.Offset != int64(len(full)) {
		t.Fatalf("Offset = %d, want %d (length of valid prefix)", tt.Offset, len(full))
	}
	if tt.Line != 3 {
		t.Fatalf("Line = %d, want 3", tt.Line)
	}
	// Truncating at Offset and appending yields a clean log again.
	repaired := cat(torn[:tt.Offset], third)
	events, err = Read(bytes.NewReader(repaired))
	if err != nil || len(events) != 3 {
		t.Fatalf("repaired log: events = %d, err = %v", len(events), err)
	}
}

func TestReadTornTailOnlyAtEnd(t *testing.T) {
	// A malformed record followed by a valid event is corruption, not a
	// torn tail: recovery must hard-fail rather than drop events.
	first := rec(t, Event{Seq: 1, Kind: KindJoin, Name: "ada"})
	second := rec(t, Event{Seq: 2, Kind: KindContribute, Name: "ada", Amount: 2})
	bad := cat(first, second[:len(second)/2], rec(t, Event{Seq: 3, Kind: KindJoin, Name: "bo", Sponsor: "ada"}))
	if _, err := Read(bytes.NewReader(bad)); errors.Is(err, ErrTornTail) || err == nil {
		t.Fatalf("mid-log corruption must be a hard error, got %v", err)
	}
	// Trailing whitespace after the torn record is still a torn tail.
	tornPlusBlank := cat(first, second[:len(second)/2], []byte("\n \n\n"))
	events, err := Read(bytes.NewReader(tornPlusBlank))
	if !errors.Is(err, ErrTornTail) {
		t.Fatalf("err = %v, want ErrTornTail", err)
	}
	if len(events) != 1 {
		t.Fatalf("events = %d, want 1", len(events))
	}
}

func TestReadTornTailInvalidFinalEvent(t *testing.T) {
	// The final record's CRC checks out but the event fails validation —
	// a contribution of zero. Still a torn tail.
	last := rec(t, Event{Seq: 2, Kind: KindContribute, Name: "ada", Amount: 1})
	payload := last[2 : len(last)-4]
	binary.LittleEndian.PutUint64(payload[len(payload)-8:], 0) // amount 0
	binary.LittleEndian.PutUint32(last[len(last)-4:], crc32.Checksum(payload, castagnoli))
	torn := cat(rec(t, Event{Seq: 1, Kind: KindJoin, Name: "ada"}), last)
	events, err := Read(bytes.NewReader(torn))
	if !errors.Is(err, ErrTornTail) {
		t.Fatalf("err = %v, want ErrTornTail", err)
	}
	if len(events) != 1 {
		t.Fatalf("events = %d, want 1", len(events))
	}
}

func TestReplayBuildsTree(t *testing.T) {
	events := []Event{
		{Seq: 1, Kind: KindJoin, Name: "ada"},
		{Seq: 2, Kind: KindJoin, Name: "bo", Sponsor: "ada"},
		{Seq: 3, Kind: KindContribute, Name: "ada", Amount: 2},
		{Seq: 4, Kind: KindContribute, Name: "bo", Amount: 3},
		{Seq: 5, Kind: KindContribute, Name: "bo", Amount: 1},
	}
	st, err := Replay(nil, events)
	if err != nil {
		t.Fatal(err)
	}
	if st.LastSeq != 5 {
		t.Fatalf("LastSeq = %d", st.LastSeq)
	}
	if got := st.Tree.Total(); got != 6 {
		t.Fatalf("Total = %v", got)
	}
	bo := st.ByName["bo"]
	if got := st.Tree.Contribution(bo); got != 4 {
		t.Fatalf("bo = %v", got)
	}
	if st.Tree.Parent(bo) != st.ByName["ada"] {
		t.Fatal("sponsorship lost")
	}
	if err := st.Tree.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestReplayErrors(t *testing.T) {
	tests := []struct {
		name   string
		events []Event
	}{
		{"duplicate join", []Event{
			{Seq: 1, Kind: KindJoin, Name: "a"},
			{Seq: 2, Kind: KindJoin, Name: "a"},
		}},
		{"unknown sponsor", []Event{
			{Seq: 1, Kind: KindJoin, Name: "a", Sponsor: "ghost"},
		}},
		{"unknown contributor", []Event{
			{Seq: 1, Kind: KindContribute, Name: "ghost", Amount: 1},
		}},
		{"stale sequence", []Event{
			{Seq: 1, Kind: KindJoin, Name: "a"},
			{Seq: 1, Kind: KindJoin, Name: "b"},
		}},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := Replay(nil, tc.events); err == nil {
				t.Fatal("Replay should fail")
			}
		})
	}
}

func TestSnapshotPlusSuffixEqualsFullReplay(t *testing.T) {
	all := []Event{
		{Seq: 1, Kind: KindJoin, Name: "a"},
		{Seq: 2, Kind: KindContribute, Name: "a", Amount: 1},
		{Seq: 3, Kind: KindJoin, Name: "b", Sponsor: "a"},
		{Seq: 4, Kind: KindContribute, Name: "b", Amount: 2},
	}
	full, err := Replay(nil, all)
	if err != nil {
		t.Fatal(err)
	}
	// Snapshot after the first two events...
	prefix, err := Replay(nil, all[:2])
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(prefix.Tree)
	if err != nil {
		t.Fatal(err)
	}
	var restored tree.Tree
	if err := json.Unmarshal(data, &restored); err != nil {
		t.Fatal(err)
	}
	base, err := StateFromSnapshot(Snapshot{LastSeq: prefix.LastSeq, Tree: &restored})
	if err != nil {
		t.Fatal(err)
	}
	// ...then replay the suffix on top.
	recovered, err := Replay(base, all[2:])
	if err != nil {
		t.Fatal(err)
	}
	if !recovered.Tree.Equal(full.Tree) {
		t.Fatalf("snapshot+suffix != full replay:\n%s\nvs\n%s",
			recovered.Tree.Render(), full.Tree.Render())
	}
}

func TestStateFromSnapshotRejectsDuplicateNames(t *testing.T) {
	tr := tree.New()
	a := tr.MustAdd(tree.Root, 1)
	b := tr.MustAdd(tree.Root, 1)
	if err := tr.SetLabel(a, "same"); err != nil {
		t.Fatal(err)
	}
	if err := tr.SetLabel(b, "same"); err != nil {
		t.Fatal(err)
	}
	if _, err := StateFromSnapshot(Snapshot{Tree: tr}); err == nil {
		t.Fatal("duplicate names should be rejected")
	}
}
