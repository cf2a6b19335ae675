package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"strings"
	"testing"

	"incentivetree/internal/core"
	"incentivetree/internal/geometric"
	"incentivetree/internal/journal"
)

func mech(t *testing.T) core.Mechanism {
	t.Helper()
	m, err := geometric.Default(core.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func populate(t *testing.T, s *Server) {
	t.Helper()
	if err := s.Join("ada", ""); err != nil {
		t.Fatal(err)
	}
	if err := s.Join("bo", "ada"); err != nil {
		t.Fatal(err)
	}
	if err := s.Contribute("ada", 2); err != nil {
		t.Fatal(err)
	}
	if err := s.Contribute("bo", 3); err != nil {
		t.Fatal(err)
	}
}

func TestSnapshotRestoreRoundTrip(t *testing.T) {
	s := New(mech(t))
	populate(t, s)
	snap := s.SnapshotState()

	restored := New(mech(t))
	if err := restored.RestoreState(snap); err != nil {
		t.Fatal(err)
	}
	p, err := restored.participant("bo")
	if err != nil {
		t.Fatal(err)
	}
	if p.Contribution != 3 || p.Sponsor != "ada" {
		t.Fatalf("restored bo = %+v", p)
	}
	// Writes continue to work after restore.
	if err := restored.Contribute("bo", 1); err != nil {
		t.Fatal(err)
	}
}

func TestSnapshotIsIsolatedCopy(t *testing.T) {
	s := New(mech(t))
	populate(t, s)
	snap := s.SnapshotState()
	if err := s.Contribute("ada", 10); err != nil {
		t.Fatal(err)
	}
	if got := snap.Tree.Total(); got != 5 {
		t.Fatalf("snapshot mutated: total = %v", got)
	}
}

func TestRestoreRejectsBadSnapshots(t *testing.T) {
	s := New(mech(t))
	if err := s.RestoreState(journal.Snapshot{}); err == nil {
		t.Fatal("nil tree should be rejected")
	}
	// Duplicate names.
	dupe := New(mech(t))
	populate(t, dupe)
	snap := dupe.SnapshotState()
	if err := snap.Tree.SetLabel(2, "ada"); err != nil {
		t.Fatal(err)
	}
	if err := s.RestoreState(snap); err == nil {
		t.Fatal("duplicate names should be rejected")
	}
}

func TestJournalRecordsWrites(t *testing.T) {
	var wal bytes.Buffer
	s := New(mech(t), WithJournal(journal.NewWriter(&wal, 1)))
	populate(t, s)
	events, err := journal.Read(&wal)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 4 {
		t.Fatalf("journal has %d events, want 4", len(events))
	}
	if events[0].Kind != journal.KindJoin || events[2].Kind != journal.KindContribute {
		t.Fatalf("unexpected kinds: %+v", events)
	}
}

func TestRecoverFromJournalOnly(t *testing.T) {
	var wal bytes.Buffer
	s := New(mech(t), WithJournal(journal.NewWriter(&wal, 1)))
	populate(t, s)
	want := s.SnapshotState()

	events, err := journal.Read(&wal)
	if err != nil {
		t.Fatal(err)
	}
	fresh := New(mech(t))
	if err := Recover(fresh, nil, events); err != nil {
		t.Fatal(err)
	}
	if !fresh.SnapshotState().Tree.Equal(want.Tree) {
		t.Fatal("journal-only recovery diverged")
	}
}

func TestRecoverFromSnapshotPlusSuffix(t *testing.T) {
	var wal bytes.Buffer
	s := New(mech(t), WithJournal(journal.NewWriter(&wal, 1)))
	if err := s.Join("ada", ""); err != nil {
		t.Fatal(err)
	}
	if err := s.Contribute("ada", 2); err != nil {
		t.Fatal(err)
	}
	snap := s.SnapshotState() // covers seq 1-2
	if err := s.Join("bo", "ada"); err != nil {
		t.Fatal(err)
	}
	if err := s.Contribute("bo", 5); err != nil {
		t.Fatal(err)
	}
	want := s.SnapshotState()

	events, err := journal.Read(&wal)
	if err != nil {
		t.Fatal(err)
	}
	fresh := New(mech(t))
	if err := Recover(fresh, &snap, events); err != nil {
		t.Fatal(err)
	}
	if !fresh.SnapshotState().Tree.Equal(want.Tree) {
		t.Fatalf("snapshot+suffix recovery diverged:\n%s\nvs\n%s",
			fresh.SnapshotState().Tree.Render(), want.Tree.Render())
	}
	if fresh.SnapshotState().LastSeq != want.LastSeq {
		t.Fatalf("LastSeq = %d, want %d", fresh.SnapshotState().LastSeq, want.LastSeq)
	}
}

// TestRecoverRefusesSeqGap: a suffix that skips a seq after the
// snapshot is refused and adopts nothing, even when every event in it
// would apply on its own.
func TestRecoverRefusesSeqGap(t *testing.T) {
	var wal bytes.Buffer
	s := New(mech(t), WithJournal(journal.NewWriter(&wal, 1)))
	if err := s.Join("ada", ""); err != nil {
		t.Fatal(err)
	}
	if err := s.Contribute("ada", 2); err != nil {
		t.Fatal(err)
	}
	snap := s.SnapshotState() // covers seq 1-2
	if err := s.Join("bo", ""); err != nil {
		t.Fatal(err)
	}
	if err := s.Contribute("ada", 1); err != nil {
		t.Fatal(err)
	}
	if err := s.Join("cy", "ada"); err != nil {
		t.Fatal(err)
	}
	events, err := journal.Read(&wal)
	if err != nil {
		t.Fatal(err)
	}
	suffix := events[3:] // seq 4 and 5; seq 3 is lost
	if suffix[0].Seq != 4 {
		t.Fatalf("suffix starts at seq %d, want 4", suffix[0].Seq)
	}
	fresh := New(mech(t))
	err = Recover(fresh, &snap, suffix)
	if err == nil || !strings.Contains(err.Error(), "missing events") {
		t.Fatalf("Recover over a seq gap: err = %v, want missing events", err)
	}
	if got := fresh.LastSeq(); got != 0 {
		t.Fatalf("a refused recovery left LastSeq %d, want 0", got)
	}
}

func TestSnapshotAndRestoreEndpoints(t *testing.T) {
	s, ts := newTestServer(t)
	if err := s.Join("ada", ""); err != nil {
		t.Fatal(err)
	}
	if err := s.Contribute("ada", 4); err != nil {
		t.Fatal(err)
	}
	var snap journal.Snapshot
	getJSON(t, ts.URL+"/v1/snapshot", &snap)
	if snap.Tree == nil || snap.Tree.Total() != 4 {
		t.Fatalf("snapshot = %+v", snap)
	}

	// Restore into a second server over HTTP.
	_, ts2 := newTestServer(t)
	data, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts2.URL+"/v1/restore", "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("restore status = %d", resp.StatusCode)
	}
	var ada Participant
	getJSON(t, ts2.URL+"/v1/participants/ada", &ada)
	if ada.Contribution != 4 {
		t.Fatalf("restored ada = %+v", ada)
	}

	// Malformed restore.
	resp, err = http.Post(ts2.URL+"/v1/restore", "application/json", strings.NewReader("{"))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed restore status = %d", resp.StatusCode)
	}
}
