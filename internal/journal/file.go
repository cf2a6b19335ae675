package journal

import (
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sync"
	"time"

	"incentivetree/internal/obs"
)

// metricSyncs counts explicit File.Sync calls issued by FileWriters, so
// operators can verify a sync policy is actually being exercised.
var metricSyncs = obs.Default().Counter("itree_journal_syncs_total",
	"Explicit fsync calls issued by journal file writers.")

// SyncPolicy selects when a FileWriter flushes appended events to stable
// storage.
type SyncPolicy string

// The sync policies.
const (
	// SyncOS leaves flushing to the operating system's page cache — the
	// historical behavior. A machine crash may lose recent events; a
	// process crash does not (writes go straight to the kernel).
	SyncOS SyncPolicy = "os"
	// SyncInterval fsyncs inside an append once SyncEvery has elapsed
	// since the previous sync; no timer syncs on its own. While appends
	// keep arriving, a machine crash loses about one interval of events
	// at most. After the last append of a burst, the events since the
	// previous sync stay unsynced until the next append, a compaction
	// (the store's next checkpoint, whose snapshot covers them) or
	// Close.
	SyncInterval SyncPolicy = "interval"
	// SyncAlways fsyncs after every append. Durable but slow: every
	// write pays a device flush.
	SyncAlways SyncPolicy = "always"
)

// ParseSyncPolicy validates a policy string ("" means SyncOS).
func ParseSyncPolicy(s string) (SyncPolicy, error) {
	switch SyncPolicy(s) {
	case "", SyncOS:
		return SyncOS, nil
	case SyncInterval:
		return SyncInterval, nil
	case SyncAlways:
		return SyncAlways, nil
	}
	return "", fmt.Errorf("journal: unknown sync policy %q (choose os, interval, always)", s)
}

// appendFile is the part of *os.File a FileWriter appends through;
// tests substitute a fake to inject write and sync failures.
type appendFile interface {
	io.Writer
	Sync() error
	Truncate(size int64) error
	Close() error
}

// FileWriter is an append-only journal file with a configurable sync
// policy and support for checkpoint compaction. It is safe for
// concurrent use and implements io.Writer, so it can back a
// journal.Writer.
type FileWriter struct {
	path   string
	policy SyncPolicy
	every  time.Duration

	mu       sync.Mutex
	f        appendFile
	size     int64 // current file size in bytes
	lastSync time.Time
	// broken is set when a failed write could not be rolled back; the
	// file's tail is then unknown, so every later Write and CompactTo
	// refuses until the file is reopened (and recovered).
	broken error
}

// OpenFile opens (creating if needed) the journal file at path for
// appending under the given sync policy. every is the flush period for
// SyncInterval and is ignored otherwise.
func OpenFile(path string, policy SyncPolicy, every time.Duration) (*FileWriter, error) {
	if policy == "" {
		policy = SyncOS
	}
	if policy == SyncInterval && every <= 0 {
		return nil, fmt.Errorf("journal: sync policy %q needs a positive interval", policy)
	}
	// Create exclusively to learn whether the file is new: a new file's
	// directory entry is durable only once its directory is synced.
	f, err := os.OpenFile(path, os.O_CREATE|os.O_EXCL|os.O_WRONLY|os.O_APPEND, 0o644)
	created := err == nil
	if errors.Is(err, fs.ErrExist) {
		f, err = os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	}
	if err != nil {
		return nil, fmt.Errorf("journal: open %s: %w", path, err)
	}
	if created {
		syncDir(filepath.Dir(path))
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("journal: stat %s: %w", path, err)
	}
	return &FileWriter{path: path, policy: policy, every: every, f: f, size: st.Size(), lastSync: time.Now()}, nil
}

// Write appends p and applies the sync policy. It implements io.Writer.
//
// Write is all-or-nothing: if the write or its sync fails, the file is
// truncated back to its size before the call and fsynced, so a failed
// append leaves no bytes behind for later appends to land after. If
// that rollback fails too, the writer refuses every later Write until
// the file is reopened.
func (fw *FileWriter) Write(p []byte) (int, error) {
	fw.mu.Lock()
	defer fw.mu.Unlock()
	if err := fw.usableLocked(); err != nil {
		return 0, err
	}
	n, err := fw.f.Write(p)
	if err == nil {
		switch fw.policy {
		case SyncAlways:
			err = fw.syncLocked()
		case SyncInterval:
			if time.Since(fw.lastSync) >= fw.every {
				err = fw.syncLocked()
			}
		}
	}
	if err != nil {
		return 0, fw.rollbackLocked(err)
	}
	fw.size += int64(n)
	return n, nil
}

// usableLocked reports why the writer cannot append or compact, if it
// cannot.
func (fw *FileWriter) usableLocked() error {
	if fw.f == nil {
		return errors.New("journal: file writer closed")
	}
	return fw.broken
}

// rollbackLocked undoes a failed Write by truncating the file to the
// size it had before the call, and returns the write's error. A failed
// rollback marks the writer broken.
func (fw *FileWriter) rollbackLocked(cause error) error {
	err := fw.f.Truncate(fw.size)
	if err == nil {
		err = fw.f.Sync()
	}
	if err != nil {
		fw.broken = fmt.Errorf("journal: %s is read-only until reopened: rolling back a failed write: %w", fw.path, err)
		return fmt.Errorf("%w (after write error: %w)", fw.broken, cause)
	}
	return cause
}

// Sync flushes the file to stable storage regardless of policy.
func (fw *FileWriter) Sync() error {
	fw.mu.Lock()
	defer fw.mu.Unlock()
	if fw.f == nil {
		return nil
	}
	return fw.syncLocked()
}

func (fw *FileWriter) syncLocked() error {
	if err := fw.f.Sync(); err != nil {
		return fmt.Errorf("journal: sync %s: %w", fw.path, err)
	}
	fw.lastSync = time.Now()
	metricSyncs.Inc()
	return nil
}

// Size returns the current file size in bytes. Because appends go
// through Write, the size observed between appends is exactly the byte
// offset of the next event.
func (fw *FileWriter) Size() int64 {
	fw.mu.Lock()
	defer fw.mu.Unlock()
	return fw.size
}

// CompactTo atomically replaces the journal file with its suffix
// starting at byte offset keep, returning the number of bytes dropped.
// The suffix goes through WriteFileAtomic, so a crash at any point
// leaves either the full old file or the complete suffix — never a
// partial journal. Callers must only drop a prefix whose events are
// covered by a durable snapshot.
func (fw *FileWriter) CompactTo(keep int64) (int64, error) {
	fw.mu.Lock()
	defer fw.mu.Unlock()
	if err := fw.usableLocked(); err != nil {
		return 0, err
	}
	if keep < 0 || keep > fw.size {
		return 0, fmt.Errorf("journal: compact offset %d outside file of %d bytes", keep, fw.size)
	}
	if keep == 0 {
		return 0, nil // nothing to drop
	}
	src, err := os.Open(fw.path)
	if err != nil {
		return 0, fmt.Errorf("journal: compact open: %w", err)
	}
	defer src.Close()
	if _, err := src.Seek(keep, io.SeekStart); err != nil {
		return 0, fmt.Errorf("journal: compact seek: %w", err)
	}
	if err := WriteFileAtomic(fw.path, src); err != nil {
		return 0, fmt.Errorf("journal: compact: %w", err)
	}
	// Reopen so appends land in the new file; the old inode is garbage.
	nf, err := os.OpenFile(fw.path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return 0, fmt.Errorf("journal: compact reopen: %w", err)
	}
	fw.f.Close()
	fw.f = nf
	fw.size -= keep
	return keep, nil
}

// Close flushes (under SyncAlways/SyncInterval) and closes the file.
func (fw *FileWriter) Close() error {
	fw.mu.Lock()
	defer fw.mu.Unlock()
	if fw.f == nil {
		return nil
	}
	var err error
	if fw.policy != SyncOS {
		err = fw.syncLocked()
	}
	if cerr := fw.f.Close(); err == nil {
		err = cerr
	}
	fw.f = nil
	return err
}

// WriteFileAtomic replaces the file at path with the bytes read from
// src: it writes them to path+".tmp", fsyncs and closes that file,
// renames it over path, then fsyncs the directory so the rename itself
// survives a power loss. A crash at any point leaves either the old
// file or the complete new one, never a partial file; a failure
// removes the temp file.
func WriteFileAtomic(path string, src io.Reader) error {
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	_, err = io.Copy(f, src)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		os.Remove(tmp)
		return err
	}
	syncDir(filepath.Dir(path))
	return nil
}

// MkdirAll creates dir and any missing parents, as os.MkdirAll does,
// then fsyncs the parent of each directory it created, so the new
// entries survive a power loss (best-effort, see syncDir).
func MkdirAll(dir string) error {
	var missing []string // deepest first
	for d := filepath.Clean(dir); filepath.Dir(d) != d; d = filepath.Dir(d) {
		if _, err := os.Stat(d); err == nil {
			break
		}
		missing = append(missing, d)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for i := len(missing) - 1; i >= 0; i-- {
		syncDir(filepath.Dir(missing[i]))
	}
	return nil
}

// syncDir fsyncs a directory after a create or rename in it. It is a
// variable so tests can record the calls.
var syncDir = fsyncDir

// fsyncDir best-effort fsyncs dir, making a preceding create or rename
// in it durable. Errors are ignored: not all filesystems support
// directory fsync, and the entry itself already changed.
func fsyncDir(dir string) {
	d, err := os.Open(dir)
	if err != nil {
		return
	}
	d.Sync()
	d.Close()
}
