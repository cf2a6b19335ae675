package journal

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"
)

func TestParseSyncPolicy(t *testing.T) {
	for in, want := range map[string]SyncPolicy{
		"": SyncOS, "os": SyncOS, "interval": SyncInterval, "always": SyncAlways,
	} {
		got, err := ParseSyncPolicy(in)
		if err != nil || got != want {
			t.Errorf("ParseSyncPolicy(%q) = %q, %v; want %q", in, got, err, want)
		}
	}
	if _, err := ParseSyncPolicy("fsync-maybe"); err == nil {
		t.Error("unknown policy should fail")
	}
}

func TestOpenFileIntervalNeedsPositiveInterval(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.log")
	if _, err := OpenFile(path, SyncInterval, 0); err == nil {
		t.Fatal("interval policy without an interval should fail")
	}
	fw, err := OpenFile(path, SyncInterval, time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	fw.Close()
}

func TestFileWriterAppendAndSize(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.log")
	fw, err := OpenFile(path, SyncOS, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer fw.Close()
	if fw.Size() != 0 {
		t.Fatalf("fresh file size = %d", fw.Size())
	}
	lines := []string{"one\n", "second line\n", "three\n"}
	var want int64
	for _, l := range lines {
		n, err := fw.Write([]byte(l))
		if err != nil || n != len(l) {
			t.Fatalf("Write = %d, %v", n, err)
		}
		want += int64(n)
		if fw.Size() != want {
			t.Fatalf("Size = %d, want %d", fw.Size(), want)
		}
	}
	// Reopening resumes at the existing size.
	fw.Close()
	fw2, err := OpenFile(path, SyncOS, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer fw2.Close()
	if fw2.Size() != want {
		t.Fatalf("reopened Size = %d, want %d", fw2.Size(), want)
	}
}

func TestFileWriterSyncAlwaysCounts(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.log")
	fw, err := OpenFile(path, SyncAlways, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer fw.Close()
	before := metricSyncs.Value()
	for i := 0; i < 3; i++ {
		if _, err := fw.Write([]byte("x\n")); err != nil {
			t.Fatal(err)
		}
	}
	if got := metricSyncs.Value() - before; got != 3 {
		t.Fatalf("itree_journal_syncs_total advanced by %d, want 3", got)
	}
}

func TestFileWriterIntervalSyncs(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.log")
	// A 1ns interval has always elapsed, so every append syncs.
	fw, err := OpenFile(path, SyncInterval, time.Nanosecond)
	if err != nil {
		t.Fatal(err)
	}
	defer fw.Close()
	before := metricSyncs.Value()
	if _, err := fw.Write([]byte("x\n")); err != nil {
		t.Fatal(err)
	}
	if metricSyncs.Value() == before {
		t.Fatal("elapsed interval should trigger a sync")
	}
	// A huge interval never elapses mid-test: appends stay unsynced.
	fw2, err := OpenFile(filepath.Join(t.TempDir(), "k.log"), SyncInterval, time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	defer fw2.Close()
	before = metricSyncs.Value()
	if _, err := fw2.Write([]byte("x\n")); err != nil {
		t.Fatal(err)
	}
	if metricSyncs.Value() != before {
		t.Fatal("unelapsed interval must not sync on append")
	}
}

func TestFileWriterCompactTo(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.log")
	fw, err := OpenFile(path, SyncOS, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer fw.Close()
	prefix, suffix := "aaa\nbbb\n", "ccc\nddd\n"
	if _, err := fw.Write([]byte(prefix)); err != nil {
		t.Fatal(err)
	}
	keep := fw.Size()
	if _, err := fw.Write([]byte(suffix)); err != nil {
		t.Fatal(err)
	}

	dropped, err := fw.CompactTo(keep)
	if err != nil {
		t.Fatal(err)
	}
	if dropped != keep {
		t.Fatalf("dropped %d bytes, want %d", dropped, keep)
	}
	if fw.Size() != int64(len(suffix)) {
		t.Fatalf("post-compact Size = %d, want %d", fw.Size(), len(suffix))
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != suffix {
		t.Fatalf("post-compact file = %q, want %q", data, suffix)
	}
	if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
		t.Fatalf("compaction temp file left behind: %v", err)
	}

	// Appends after compaction land in the replacement file.
	if _, err := fw.Write([]byte("eee\n")); err != nil {
		t.Fatal(err)
	}
	data, _ = os.ReadFile(path)
	if string(data) != suffix+"eee\n" {
		t.Fatalf("post-compact append: file = %q", data)
	}
}

func TestFileWriterCompactToEdgeCases(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.log")
	fw, err := OpenFile(path, SyncOS, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fw.Write([]byte("abc\n")); err != nil {
		t.Fatal(err)
	}
	if n, err := fw.CompactTo(0); n != 0 || err != nil {
		t.Fatalf("CompactTo(0) = %d, %v; want no-op", n, err)
	}
	if _, err := fw.CompactTo(-1); err == nil {
		t.Error("negative offset should fail")
	}
	if _, err := fw.CompactTo(fw.Size() + 1); err == nil {
		t.Error("offset past EOF should fail")
	}
	fw.Close()
	if _, err := fw.Write([]byte("x")); err == nil || !strings.Contains(err.Error(), "closed") {
		t.Errorf("write after close = %v", err)
	}
	if _, err := fw.CompactTo(1); err == nil {
		t.Error("compact after close should fail")
	}
	if err := fw.Close(); err != nil {
		t.Errorf("double close = %v", err)
	}
}

// TestFileWriterBacksJournalWriter wires a FileWriter under the event
// Writer and round-trips events through Read — the integration the
// store's campaigns rely on.
func TestFileWriterBacksJournalWriter(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.log")
	fw, err := OpenFile(path, SyncAlways, 0)
	if err != nil {
		t.Fatal(err)
	}
	w := NewWriter(fw, 1)
	if _, err := appendOne(w, Event{Kind: KindJoin, Name: "ada"}); err != nil {
		t.Fatal(err)
	}
	if _, err := appendOne(w, Event{Kind: KindContribute, Name: "ada", Amount: 2}); err != nil {
		t.Fatal(err)
	}
	fw.Close()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	events, err := Read(f)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 2 || events[1].Seq != 2 || events[1].Amount != 2 {
		t.Fatalf("round-trip = %+v", events)
	}
}

// faultyFile wraps the journal's real *os.File and fails the next
// write, sync or truncate when told to. A failed write still lands half
// its bytes, as a short write on a full disk does; a failed sync comes
// after the whole write reached the file, as an fsync EIO does.
type faultyFile struct {
	*os.File
	failWrite, failSync, failTruncate bool
	writes, syncs, truncates          int
}

var errInjected = errors.New("injected I/O error")

func (f *faultyFile) Write(p []byte) (int, error) {
	f.writes++
	if f.failWrite {
		f.failWrite = false
		n, _ := f.File.Write(p[:len(p)/2])
		return n, errInjected
	}
	return f.File.Write(p)
}

func (f *faultyFile) Sync() error {
	f.syncs++
	if f.failSync {
		f.failSync = false
		return errInjected
	}
	return f.File.Sync()
}

func (f *faultyFile) Truncate(size int64) error {
	f.truncates++
	if f.failTruncate {
		return errInjected
	}
	return f.File.Truncate(size)
}

// openFaulty opens a SyncAlways FileWriter at path whose file injects
// faults on demand.
func openFaulty(t *testing.T, path string) (*FileWriter, *faultyFile) {
	t.Helper()
	fw, err := OpenFile(path, SyncAlways, 0)
	if err != nil {
		t.Fatal(err)
	}
	ff := &faultyFile{File: fw.f.(*os.File)}
	fw.f = ff
	return fw, ff
}

// TestFileWriterRollsBackFailedWrite: a batch whose write or fsync
// fails leaves no bytes in the journal, so the next batch — which
// reuses the failed batch's sequence numbers — yields a gap-free log
// that recovers exactly the acknowledged events.
func TestFileWriterRollsBackFailedWrite(t *testing.T) {
	for _, fault := range []string{"write", "sync"} {
		t.Run(fault, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "j.log")
			fw, ff := openFaulty(t, path)
			w := NewWriter(fw, 1)
			if _, err := appendOne(w, Event{Kind: KindJoin, Name: "ada"}); err != nil {
				t.Fatal(err)
			}
			if ff.truncates != 0 || ff.writes != 1 || ff.syncs != 1 {
				t.Fatalf("successful append cost %d writes, %d syncs, %d truncates; want 1, 1, 0",
					ff.writes, ff.syncs, ff.truncates)
			}
			size := fw.Size()
			ff.failWrite, ff.failSync = fault == "write", fault == "sync"
			failed := []Event{{Kind: KindJoin, Name: "bo", Sponsor: "ada"}, {Kind: KindContribute, Name: "bo", Amount: 9}}
			if _, err := w.AppendBatch(failed); !errors.Is(err, errInjected) {
				t.Fatalf("failed batch: err = %v, want the injected error", err)
			}
			if fw.Size() != size {
				t.Fatalf("Size after failed write = %d, want %d", fw.Size(), size)
			}
			if st, err := os.Stat(path); err != nil || st.Size() != size {
				t.Fatalf("file after failed write: %v, %v; want %d bytes", st, err, size)
			}
			persisted, err := appendOne(w, Event{Kind: KindContribute, Name: "ada", Amount: 2})
			if err != nil {
				t.Fatal(err)
			}
			if persisted.Seq != 2 {
				t.Fatalf("next append got seq %d, want 2", persisted.Seq)
			}
			fw.Close()
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			events, err := Read(bytes.NewReader(data))
			if err != nil {
				t.Fatalf("journal after a failed write: %v", err)
			}
			if len(events) != 2 || !events[1].Equal(persisted) {
				t.Fatalf("recovered %+v, want ada's join and contribution only", events)
			}
		})
	}
}

// TestFileWriterRefusesAfterFailedRollback: when the rollback of a
// failed write fails too, the file's tail is unknown, so the writer
// refuses every later append and compaction until the file is reopened.
func TestFileWriterRefusesAfterFailedRollback(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.log")
	fw, ff := openFaulty(t, path)
	w := NewWriter(fw, 1)
	if _, err := appendOne(w, Event{Kind: KindJoin, Name: "ada"}); err != nil {
		t.Fatal(err)
	}
	ff.failSync, ff.failTruncate = true, true
	if _, err := appendOne(w, Event{Kind: KindContribute, Name: "ada", Amount: 1}); !errors.Is(err, errInjected) {
		t.Fatalf("err = %v, want the injected error", err)
	}
	ff.failTruncate = false
	_, err := appendOne(w, Event{Kind: KindContribute, Name: "ada", Amount: 2})
	if err == nil || !strings.Contains(err.Error(), "read-only until reopened") {
		t.Fatalf("append after a failed rollback: err = %v, want a refusal", err)
	}
	if _, err := fw.CompactTo(fw.Size()); err == nil || !strings.Contains(err.Error(), "read-only until reopened") {
		t.Fatalf("compaction after a failed rollback: err = %v, want a refusal", err)
	}
	fw.Close()
	fw2, err := OpenFile(path, SyncAlways, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer fw2.Close()
	if _, err := fw2.Write(nil); err != nil {
		t.Fatalf("reopened writer: %v", err)
	}
}

// recordDirSyncs replaces syncDir for the rest of the test with a
// recorder of the directories synced; check, when set, runs inside
// each sync call.
func recordDirSyncs(t *testing.T, check func(dir string)) *[]string {
	t.Helper()
	var calls []string
	orig := syncDir
	syncDir = func(dir string) {
		if check != nil {
			check(dir)
		}
		calls = append(calls, dir)
	}
	t.Cleanup(func() { syncDir = orig })
	return &calls
}

// TestWriteFileAtomicSyncsDirAfterRename: the directory is synced once,
// after the rename put the new bytes at path and before the call
// returns, so the rename is durable when the caller goes on.
func TestWriteFileAtomicSyncsDirAfterRename(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "snapshot.bin")
	if err := os.WriteFile(path, []byte("old"), 0o644); err != nil {
		t.Fatal(err)
	}
	calls := recordDirSyncs(t, func(string) {
		if got, err := os.ReadFile(path); err != nil || string(got) != "new" {
			t.Errorf("directory synced before the rename: %s holds %q (%v)", path, got, err)
		}
	})
	if err := WriteFileAtomic(path, strings.NewReader("new")); err != nil {
		t.Fatal(err)
	}
	if len(*calls) != 1 || (*calls)[0] != dir {
		t.Fatalf("directory syncs = %q, want one of %q", *calls, dir)
	}
	if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
		t.Fatalf("temp file left behind: %v", err)
	}

}

// TestCompactToSyncsDirAfterRename: compaction replaces the journal
// through WriteFileAtomic, so its directory is synced once the suffix
// is in place.
func TestCompactToSyncsDirAfterRename(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "journal.log")
	fw, err := OpenFile(path, SyncOS, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer fw.Close()
	if _, err := fw.Write([]byte("prefixsuffix")); err != nil {
		t.Fatal(err)
	}
	calls := recordDirSyncs(t, func(string) {
		if got, err := os.ReadFile(path); err != nil || string(got) != "suffix" {
			t.Errorf("directory synced before the rename: %s holds %q (%v)", path, got, err)
		}
	})
	if _, err := fw.CompactTo(int64(len("prefix"))); err != nil {
		t.Fatal(err)
	}
	if len(*calls) != 1 || (*calls)[0] != dir {
		t.Fatalf("directory syncs = %q, want one of %q", *calls, dir)
	}
}

// TestOpenFileSyncsDirOnCreate: creating a journal syncs its directory,
// so the new entry survives a power loss; reopening one does not.
func TestOpenFileSyncsDirOnCreate(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "journal.log")
	calls := recordDirSyncs(t, nil)
	for i, want := range [][]string{{dir}, nil} {
		*calls = nil
		fw, err := OpenFile(path, SyncOS, 0)
		if err != nil {
			t.Fatal(err)
		}
		if err := fw.Close(); err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(*calls, want) {
			t.Fatalf("open %d: directory syncs = %q, want %q", i, *calls, want)
		}
	}
}

// TestMkdirAllSyncsParents: each directory MkdirAll creates has its
// parent synced, outermost first; existing directories cost no sync.
func TestMkdirAllSyncsParents(t *testing.T) {
	root := t.TempDir()
	calls := recordDirSyncs(t, nil)
	data := filepath.Join(root, "data")
	leaf := filepath.Join(data, "campaigns", "c1")
	if err := MkdirAll(leaf); err != nil {
		t.Fatal(err)
	}
	if fi, err := os.Stat(leaf); err != nil || !fi.IsDir() {
		t.Fatalf("%s not created: %v", leaf, err)
	}
	want := []string{root, data, filepath.Join(data, "campaigns")}
	if !slices.Equal(*calls, want) {
		t.Fatalf("directory syncs = %q, want %q", *calls, want)
	}
	*calls = nil
	if err := MkdirAll(leaf); err != nil {
		t.Fatal(err)
	}
	if len(*calls) != 0 {
		t.Fatalf("existing directory synced %q", *calls)
	}
}
