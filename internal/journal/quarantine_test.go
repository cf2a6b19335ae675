package journal

import (
	"bytes"
	"reflect"
	"testing"

	"incentivetree/internal/tree"
)

func TestQuarantineEventValidate(t *testing.T) {
	tests := []struct {
		name    string
		e       Event
		wantErr bool
	}{
		{"valid quarantine", Event{Seq: 1, Kind: KindQuarantine, Name: "a"}, false},
		{"valid unquarantine", Event{Seq: 1, Kind: KindUnquarantine, Name: "a"}, false},
		{"quarantine without name", Event{Seq: 1, Kind: KindQuarantine}, true},
		{"unquarantine without name", Event{Seq: 1, Kind: KindUnquarantine}, true},
		{"quarantine with sponsor", Event{Seq: 1, Kind: KindQuarantine, Name: "a", Sponsor: "b"}, true},
		{"quarantine with amount", Event{Seq: 1, Kind: KindQuarantine, Name: "a", Amount: 1}, true},
		{"unquarantine with amount", Event{Seq: 1, Kind: KindUnquarantine, Name: "a", Amount: 1}, true},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			if err := tc.e.Validate(); (err != nil) != tc.wantErr {
				t.Fatalf("Validate() = %v, wantErr %v", err, tc.wantErr)
			}
		})
	}
}

func TestReplayQuarantine(t *testing.T) {
	st, err := Replay(nil, []Event{
		{Seq: 1, Kind: KindJoin, Name: "a"},
		{Seq: 2, Kind: KindJoin, Name: "b", Sponsor: "a"},
		{Seq: 3, Kind: KindContribute, Name: "b", Amount: 2},
		{Seq: 4, Kind: KindQuarantine, Name: "b"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !st.Quarantined["b"] || len(st.Quarantined) != 1 {
		t.Fatalf("Quarantined = %v, want {b}", st.Quarantined)
	}
	// The raw contribution stays intact: quarantine only flags.
	id := st.ByName["b"]
	if got := st.Tree.Contribution(id); got != 2 {
		t.Fatalf("contribution after quarantine = %v, want 2", got)
	}
	st, err = Replay(st, []Event{{Seq: 5, Kind: KindUnquarantine, Name: "b"}})
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Quarantined) != 0 {
		t.Fatalf("Quarantined after unquarantine = %v, want empty", st.Quarantined)
	}
}

func TestReplayQuarantineRejectsBadTransitions(t *testing.T) {
	base := []Event{{Seq: 1, Kind: KindJoin, Name: "a"}}
	tests := []struct {
		name string
		ev   Event
	}{
		{"unknown participant", Event{Seq: 2, Kind: KindQuarantine, Name: "ghost"}},
		{"unquarantine of unflagged", Event{Seq: 2, Kind: KindUnquarantine, Name: "a"}},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			st, err := Replay(nil, base)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := Replay(st, []Event{tc.ev}); err == nil {
				t.Fatal("Replay accepted invalid quarantine transition")
			}
		})
	}
	st, err := Replay(nil, append(base, Event{Seq: 2, Kind: KindQuarantine, Name: "a"}))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Replay(st, []Event{{Seq: 3, Kind: KindQuarantine, Name: "a"}}); err == nil {
		t.Fatal("Replay accepted a duplicate quarantine")
	}
}

func TestQuarantineRoundTripsThroughWriter(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf, 1)
	for _, e := range []Event{
		{Kind: KindJoin, Name: "a"},
		{Kind: KindQuarantine, Name: "a"},
		{Kind: KindUnquarantine, Name: "a"},
		{Kind: KindQuarantine, Name: "a"},
	} {
		if _, err := appendOne(w, e); err != nil {
			t.Fatal(err)
		}
	}
	events, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	st, err := Replay(nil, events)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(st.Quarantined, map[string]bool{"a": true}) {
		t.Fatalf("Quarantined = %v, want {a}", st.Quarantined)
	}
}

func TestStateFromSnapshotInitializesQuarantine(t *testing.T) {
	tr := tree.New()
	if _, err := tr.Add(tree.Root, 1); err != nil {
		t.Fatal(err)
	}
	st, err := StateFromSnapshot(Snapshot{LastSeq: 1, Tree: tr})
	if err != nil {
		t.Fatal(err)
	}
	if st.Quarantined == nil {
		t.Fatal("StateFromSnapshot left Quarantined nil")
	}
	if _, err := Replay(st, []Event{{Seq: 2, Kind: KindQuarantine, Name: tr.Label(1)}}); err != nil {
		t.Fatalf("Replay on StateFromSnapshot base: %v", err)
	}
}
