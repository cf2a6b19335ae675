package main

import (
	"bytes"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"incentivetree/internal/core"
	"incentivetree/internal/experiments"
	"incentivetree/internal/journal"
	"incentivetree/internal/store"
	"incentivetree/internal/tree"
)

// convertRun invokes the convert subcommand with stdin/stdout buffers.
func convertRun(t *testing.T, args []string, stdin []byte) []byte {
	t.Helper()
	var out bytes.Buffer
	if err := run(append([]string{"convert"}, args...), bytes.NewReader(stdin), &out); err != nil {
		t.Fatalf("convert %v: %v", args, err)
	}
	return out.Bytes()
}

// jsonLog encodes events as JSON lines, the journal format of older
// releases, numbering them from seq 1.
func jsonLog(t *testing.T, events ...journal.Event) *bytes.Buffer {
	t.Helper()
	var log bytes.Buffer
	enc := journal.NewEncoderMode(&log, journal.ModeJSON)
	for i, e := range events {
		e.Seq = uint64(i + 1)
		if err := enc.Encode(e); err != nil {
			t.Fatal(err)
		}
	}
	return &log
}

// TestConvertJournalRoundTrip: json → binary → json reproduces the
// original log bytes (the encoder writes canonical JSON).
func TestConvertJournalRoundTrip(t *testing.T) {
	log := jsonLog(t,
		journal.Event{Kind: journal.KindJoin, Name: "alice"},
		journal.Event{Kind: journal.KindJoin, Name: "bob", Sponsor: "alice"},
		journal.Event{Kind: journal.KindContribute, Name: "bob", Amount: 2.5})

	bin := convertRun(t, []string{"-kind", "journal", "-to", "binary"}, log.Bytes())
	if bytes.Equal(bin, log.Bytes()) {
		t.Fatal("binary conversion left the log unchanged")
	}
	back := convertRun(t, []string{"-kind", "journal", "-to", "json"}, bin)
	if !bytes.Equal(back, log.Bytes()) {
		t.Fatalf("json round trip differs:\nin:  %q\nout: %q", log.Bytes(), back)
	}
	// Converting to the format the input is already in is the identity.
	if again := convertRun(t, []string{"-kind", "journal", "-to", "binary"}, bin); !bytes.Equal(again, bin) {
		t.Fatal("binary → binary conversion changed bytes")
	}
}

// TestConvertJournalSettleClaimRoundTrip: journals carrying settle and
// claim records — the settlement subsystem's ledger — convert both
// directions without losing a byte, mixed with the ordinary kinds.
func TestConvertJournalSettleClaimRoundTrip(t *testing.T) {
	log := jsonLog(t,
		journal.Event{Kind: journal.KindJoin, Name: "alice"},
		journal.Event{Kind: journal.KindJoin, Name: "bob", Sponsor: "alice"},
		journal.Event{Kind: journal.KindContribute, Name: "bob", Amount: 4},
		journal.Event{Kind: journal.KindSettle, Epoch: 1, Pool: 2, CTotal: 4,
			Rewards: []journal.RewardShare{{Name: "alice", Amount: 0.75}, {Name: "bob", Amount: 1.25}}},
		journal.Event{Kind: journal.KindClaim, Name: "bob", Epoch: 1, Amount: 1.25},
		journal.Event{Kind: journal.KindQuarantine, Name: "bob"},
		journal.Event{Kind: journal.KindSettle, Epoch: 2, Pool: 0.75, CTotal: 4.5,
			Rewards: []journal.RewardShare{{Name: "alice", Amount: 0.5}}},
		journal.Event{Kind: journal.KindClaim, Name: "alice", Epoch: 2, Amount: 0.5})

	bin := convertRun(t, []string{"-kind", "journal", "-to", "binary"}, log.Bytes())
	if bytes.Equal(bin, log.Bytes()) {
		t.Fatal("binary conversion left the log unchanged")
	}
	back := convertRun(t, []string{"-kind", "journal", "-to", "json"}, bin)
	if !bytes.Equal(back, log.Bytes()) {
		t.Fatalf("json round trip differs:\nin:  %q\nout: %q", log.Bytes(), back)
	}
	if again := convertRun(t, []string{"-kind", "journal", "-to", "binary"}, bin); !bytes.Equal(again, bin) {
		t.Fatal("binary → binary conversion changed bytes")
	}
}

// TestConvertJournalRefusesTornTail: a torn journal, binary or JSON,
// aborts instead of silently emitting a shortened log.
func TestConvertJournalRefusesTornTail(t *testing.T) {
	var log bytes.Buffer
	w := journal.NewWriter(&log, 1)
	w.AppendBatch([]journal.Event{{Kind: journal.KindJoin, Name: "alice"}})
	rec, err := journal.AppendBinaryRecord(nil, journal.Event{Seq: 2, Kind: journal.KindContribute, Name: "alice", Amount: 1})
	if err != nil {
		t.Fatal(err)
	}
	log.Write(rec[:len(rec)/2])
	var out bytes.Buffer
	err = run([]string{"convert", "-kind", "journal", "-to", "json"}, bytes.NewReader(log.Bytes()), &out)
	if err == nil || !strings.Contains(err.Error(), "torn tail") {
		t.Fatalf("err = %v, want torn-tail refusal", err)
	}
	tornJSON := jsonLog(t, journal.Event{Kind: journal.KindJoin, Name: "alice"})
	tornJSON.WriteString(`{"seq":2,"kind":"contrib`)
	if err := run([]string{"convert", "-kind", "journal", "-to", "binary"}, bytes.NewReader(tornJSON.Bytes()), &out); err == nil {
		t.Fatal("torn JSON journal converted cleanly")
	}
}

// TestConvertJournalMixedFormats: a log that switched between JSON
// lines and binary records — the shape a data directory took when an
// older release changed formats in place — converts to the same binary
// log as the all-binary original.
func TestConvertJournalMixedFormats(t *testing.T) {
	events := []journal.Event{
		{Seq: 1, Kind: journal.KindJoin, Name: "alice"},
		{Seq: 2, Kind: journal.KindContribute, Name: "alice", Amount: 1},
		{Seq: 3, Kind: journal.KindJoin, Name: "bob", Sponsor: "alice"},
	}
	var mixed, want bytes.Buffer
	jsonEnc, binEnc, wantEnc := journal.NewEncoderMode(&mixed, journal.ModeJSON), journal.NewEncoder(&mixed), journal.NewEncoder(&want)
	for i, e := range events {
		enc := jsonEnc
		if i == 1 {
			enc = binEnc
		}
		if err := enc.Encode(e); err != nil {
			t.Fatal(err)
		}
		if err := wantEnc.Encode(e); err != nil {
			t.Fatal(err)
		}
	}
	if got := convertRun(t, []string{"-kind", "journal", "-to", "binary"}, mixed.Bytes()); !bytes.Equal(got, want.Bytes()) {
		t.Fatalf("mixed log converted to\n%x\nwant\n%x", got, want.Bytes())
	}
}

// TestConvertSnapshotRoundTrip: binary → json → binary is the identity
// on the binary bytes, via files and -o.
func TestConvertSnapshotRoundTrip(t *testing.T) {
	tr := tree.New()
	a, _ := tr.Add(tree.Root, 1.5)
	tr.SetLabel(a, "alice")
	b, _ := tr.Add(a, 2.25)
	tr.SetLabel(b, "bob")
	bin, err := journal.EncodeSnapshot(&journal.Snapshot{
		LastSeq:     7,
		Tree:        tr,
		Quarantined: []string{"bob"},
		Epochs: []journal.SettledEpoch{{
			Epoch: 1, Pool: 2, CTotal: 3.75,
			Rewards: []journal.RewardShare{{Name: "alice", Amount: 0.5}, {Name: "bob", Amount: 1}},
			Claimed: []string{"bob"},
		}},
	})
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	inPath := filepath.Join(dir, "snapshot.bin")
	if err := os.WriteFile(inPath, bin, 0o644); err != nil {
		t.Fatal(err)
	}
	jsonPath := filepath.Join(dir, "snapshot.json")
	var out bytes.Buffer
	if err := run([]string{"convert", "-kind", "snapshot", "-to", "json", "-o", jsonPath, inPath}, nil, &out); err != nil {
		t.Fatal(err)
	}
	jsonData, err := os.ReadFile(jsonPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(jsonData, []byte(`"last_seq": 7`)) {
		t.Fatalf("JSON snapshot missing last_seq: %s", jsonData)
	}
	back := convertRun(t, []string{"-kind", "snapshot", "-to", "binary"}, jsonData)
	if !bytes.Equal(back, bin) {
		t.Fatal("binary round trip through JSON changed bytes")
	}
}

// TestConvertRejectsGarbage: corrupt input of either kind errors.
func TestConvertRejectsGarbage(t *testing.T) {
	for _, kind := range []string{"snapshot", "journal"} {
		var out bytes.Buffer
		err := run([]string{"convert", "-kind", kind, "-to", "json"},
			bytes.NewReader([]byte("\xb1\xff\xffgarbage")), &out)
		if err == nil {
			t.Fatalf("%s: garbage converted cleanly", kind)
		}
	}
}

// TestConvertTrailingOutputFlag: the documented invocation puts -o
// after the input file; the re-parse loop must honor it (and reject a
// second positional argument).
func TestConvertTrailingOutputFlag(t *testing.T) {
	var log bytes.Buffer
	w := journal.NewWriter(&log, 1)
	w.AppendBatch([]journal.Event{{Kind: journal.KindJoin, Name: "alice"}})

	dir := t.TempDir()
	in := filepath.Join(dir, "journal.log")
	out := filepath.Join(dir, "journal.bin")
	if err := os.WriteFile(in, log.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	var stdout bytes.Buffer
	if err := run([]string{"convert", "-kind", "journal", "-to", "binary", in, "-o", out}, nil, &stdout); err != nil {
		t.Fatalf("convert with trailing -o: %v", err)
	}
	if stdout.Len() != 0 {
		t.Fatalf("wrote %d bytes to stdout despite -o", stdout.Len())
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatalf("-o file not written: %v", err)
	}
	want := convertRun(t, []string{"-kind", "journal", "-to", "binary"}, log.Bytes())
	if !bytes.Equal(data, want) {
		t.Fatal("-o file bytes differ from stdout conversion")
	}
	err = run([]string{"convert", "-kind", "journal", "-to", "binary", in, in}, nil, &stdout)
	if err == nil || !strings.Contains(err.Error(), "unexpected argument") {
		t.Fatalf("err = %v, want unexpected-argument refusal", err)
	}
}

// TestConvertMigratesDataDir: a campaign directory as a release that
// kept JSON on disk left it (meta.json, snapshot.json, a JSON-lines
// journal.log) is refused by the store, untouched, until each file is
// converted; then it recovers the original campaign byte for byte.
func TestConvertMigratesDataDir(t *testing.T) {
	newMechanism := func(name string, p core.Params) (core.Mechanism, error) {
		return experiments.ByName(p, name)
	}
	cfg := func(dir string) store.Config {
		return store.Config{DataDir: dir, CheckpointInterval: -1, CheckpointBytes: -1, NewMechanism: newMechanism}
	}
	get := func(st *store.Store, path string) string {
		t.Helper()
		rec := httptest.NewRecorder()
		st.Handler().ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
		if rec.Code != 200 {
			t.Fatalf("GET %s = %d: %s", path, rec.Code, rec.Body)
		}
		return rec.Body.String()
	}

	// The original campaign: a settled epoch and part of its history in
	// a checkpoint, the rest in the journal suffix.
	origDir := t.TempDir()
	orig, err := store.Open(cfg(origDir))
	if err != nil {
		t.Fatal(err)
	}
	defer orig.Close()
	c, err := orig.Create(store.Meta{ID: "acme", Mechanism: "geometric"})
	if err != nil {
		t.Fatal(err)
	}
	s := c.Server()
	for _, step := range []func() error{
		func() error { return s.Join("alice", "") },
		func() error { return s.Join("bob", "alice") },
		func() error { return s.Contribute("bob", 3) },
		func() error { _, err := s.Settle(); return err },
		func() error { _, err := orig.Checkpoint(c); return err },
		func() error { return s.Join("cy", "bob") },
		func() error { return s.Contribute("cy", 1.5) },
	} {
		if err := step(); err != nil {
			t.Fatal(err)
		}
	}
	want := get(orig, "/v1/campaigns/acme/rewards") + get(orig, "/v1/campaigns/acme/epochs")

	// The same campaign as a JSON-era directory.
	origCamp := filepath.Join(origDir, "campaigns", "acme")
	dir := t.TempDir()
	camp := filepath.Join(dir, "campaigns", "acme")
	if err := os.MkdirAll(camp, 0o755); err != nil {
		t.Fatal(err)
	}
	meta, err := os.ReadFile(filepath.Join(origCamp, "meta.json"))
	if err != nil {
		t.Fatal(err)
	}
	snapBin, err := os.ReadFile(filepath.Join(origCamp, "snapshot.bin"))
	if err != nil {
		t.Fatal(err)
	}
	snapJSON := convertRun(t, []string{"-kind", "snapshot", "-to", "json"}, snapBin)
	logBin, err := os.ReadFile(filepath.Join(origCamp, "journal.log"))
	if err != nil {
		t.Fatal(err)
	}
	events, err := journal.Read(bytes.NewReader(logBin))
	if err != nil || len(events) != 2 {
		t.Fatalf("original journal suffix: %d events, %v", len(events), err)
	}
	var logJSON bytes.Buffer
	enc := journal.NewEncoderMode(&logJSON, journal.ModeJSON)
	for _, e := range events {
		if err := enc.Encode(e); err != nil {
			t.Fatal(err)
		}
	}
	files := map[string][]byte{"meta.json": meta, "snapshot.json": snapJSON, "journal.log": logJSON.Bytes()}
	for name, data := range files {
		if err := os.WriteFile(filepath.Join(camp, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	// Refused, naming the migrator, and left byte-identical — first for
	// the snapshot, then, once that is converted, for the journal.
	refused := func() {
		t.Helper()
		if _, err := store.Open(cfg(dir)); err == nil || !strings.Contains(err.Error(), "itree convert") {
			t.Fatalf("store.Open = %v, want a refusal naming itree convert", err)
		}
		for name, data := range files {
			if got, err := os.ReadFile(filepath.Join(camp, name)); err != nil || !bytes.Equal(got, data) {
				t.Fatalf("refused recovery changed %s: %v", name, err)
			}
		}
	}
	refused()
	var out bytes.Buffer
	if err := run([]string{"convert", "-kind", "snapshot", "-to", "binary",
		filepath.Join(camp, "snapshot.json"), "-o", filepath.Join(camp, "snapshot.bin")}, nil, &out); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(filepath.Join(camp, "snapshot.json")); err != nil {
		t.Fatal(err)
	}
	delete(files, "snapshot.json")
	refused()
	if err := run([]string{"convert", "-kind", "journal", "-to", "binary",
		filepath.Join(camp, "journal.log"), "-o", filepath.Join(camp, "journal.log.new")}, nil, &out); err != nil {
		t.Fatal(err)
	}
	if err := os.Rename(filepath.Join(camp, "journal.log.new"), filepath.Join(camp, "journal.log")); err != nil {
		t.Fatal(err)
	}

	st, err := store.Open(cfg(dir))
	if err != nil {
		t.Fatalf("converted directory: %v", err)
	}
	defer st.Close()
	if got := get(st, "/v1/campaigns/acme/rewards") + get(st, "/v1/campaigns/acme/epochs"); got != want {
		t.Fatalf("converted campaign serves\n%s\nwant\n%s", got, want)
	}
}
