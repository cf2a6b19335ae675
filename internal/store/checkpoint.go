package store

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"log"
	"os"
	"path/filepath"
	"time"

	"incentivetree/internal/journal"
	"incentivetree/internal/server"
)

// Run drives the store's background services until ctx is cancelled:
// every CheckpointInterval it checkpoints campaigns with
// uncheckpointed events, in between it services size-trigger kicks
// posted by the HTTP layer when a journal passes CheckpointBytes,
// every AuditInterval it runs one audit scan per campaign,
// and every EpochInterval it settles each campaign's next payout
// epoch.
func (st *Store) Run(ctx context.Context) {
	var tick <-chan time.Time
	if st.cfg.CheckpointInterval > 0 {
		t := time.NewTicker(st.cfg.CheckpointInterval)
		defer t.Stop()
		tick = t.C
	}
	var auditTick <-chan time.Time
	if st.cfg.AuditInterval > 0 && !st.cfg.Follower {
		t := time.NewTicker(st.cfg.AuditInterval)
		defer t.Stop()
		auditTick = t.C
	}
	var epochTick <-chan time.Time
	if st.cfg.EpochInterval > 0 && !st.cfg.Follower {
		t := time.NewTicker(st.cfg.EpochInterval)
		defer t.Stop()
		epochTick = t.C
	}
	for {
		select {
		case <-ctx.Done():
			return
		case <-tick:
			st.CheckpointAll()
		case <-auditTick:
			st.AuditAll()
		case <-epochTick:
			st.SettleAll()
		case c := <-st.kick:
			c.kickMu.Lock()
			c.kicked = false
			c.kickMu.Unlock()
			if _, err := st.Checkpoint(c); err != nil {
				log.Printf("store: checkpoint %s: %v", c.Meta.ID, err)
			}
		}
	}
}

// maybeKick posts a size-trigger checkpoint request for c if its
// journal has outgrown CheckpointBytes. Requests are coalesced per
// campaign and dropped (to be retried by the periodic tick) when the
// queue is full.
func (st *Store) maybeKick(c *Campaign) {
	if c.fw == nil || st.cfg.CheckpointBytes <= 0 || c.fw.Size() < st.cfg.CheckpointBytes {
		return
	}
	c.kickMu.Lock()
	already := c.kicked
	if !already {
		c.kicked = true
	}
	c.kickMu.Unlock()
	if already {
		return
	}
	select {
	case st.kick <- c:
	default:
		c.kickMu.Lock()
		c.kicked = false
		c.kickMu.Unlock()
	}
}

// AuditAll runs one audit scan on every campaign with an attached
// auditor. An idle campaign's scan returns without a snapshot; scans
// that auto-quarantined appended journal records, so the size trigger
// is re-checked.
func (st *Store) AuditAll() {
	for _, c := range st.List() {
		if c.auditor == nil {
			continue
		}
		if stats := c.auditor.Scan(); stats.Quarantined > 0 {
			st.maybeKick(c)
		}
	}
}

// SettleAll settles the next payout epoch on every campaign. Idle
// campaigns (no contribution growth, nothing grantable) are skipped —
// server.ErrNothingToSettle is the expected steady-state answer, not a
// failure — so quiet campaigns do not accumulate empty epochs. A
// settle appends a journal record, so the size trigger is re-checked.
func (st *Store) SettleAll() {
	for _, c := range st.List() {
		if _, err := c.srv.Settle(); err != nil {
			if !errors.Is(err, server.ErrNothingToSettle) {
				log.Printf("store: settle %s: %v", c.Meta.ID, err)
			}
			continue
		}
		st.maybeKick(c)
	}
}

// CheckpointAll checkpoints every campaign with uncheckpointed events,
// returning the first error encountered (the sweep continues past
// failures).
func (st *Store) CheckpointAll() error {
	var first error
	for _, c := range st.List() {
		if _, err := st.Checkpoint(c); err != nil {
			log.Printf("store: checkpoint %s: %v", c.Meta.ID, err)
			if first == nil {
				first = err
			}
		}
	}
	return first
}

// snapFile is a campaign's checkpoint snapshot, in the binary snapshot
// format (see journal.EncodeSnapshot).
const snapFile = "snapshot.bin"

// Checkpoint atomically snapshots one campaign and compacts its
// journal, returning the number of journal bytes reclaimed. The
// protocol is crash-safe at every step:
//
//  1. Under the server's read lock, clone the state at sequence k and
//     record the journal byte offset holding exactly events 1..k.
//  2. Write the snapshot file via temp + fsync + rename + directory
//     fsync (journal.WriteFileAtomic) — the snapshot is now durable;
//     every event <= k is garbage.
//  3. Compact the journal to its suffix after the recorded offset
//     (the same routine, see journal.FileWriter.CompactTo).
//
// A crash before step 2's rename leaves the old snapshot + full
// journal; after it, the new snapshot + a journal whose covered prefix
// is dropped during recovery by sequence-number filtering. No window
// loses events. Campaigns without a store-managed journal are no-ops.
func (st *Store) Checkpoint(c *Campaign) (reclaimed int64, err error) {
	if c.fw == nil {
		return 0, nil
	}
	c.cpMu.Lock()
	defer c.cpMu.Unlock()

	var offset int64
	snap := c.srv.SnapshotAt(func() { offset = c.fw.Size() })
	if snap.LastSeq == c.checkpointedSeq && offset == 0 {
		return 0, nil // nothing new since the last checkpoint
	}
	start := time.Now()
	if err := writeSnapshot(c.dir, &snap); err != nil {
		if st.mCPErrors != nil {
			st.mCPErrors.Inc()
		}
		return 0, err
	}
	reclaimed, err = c.fw.CompactTo(offset)
	if err != nil {
		if st.mCPErrors != nil {
			st.mCPErrors.Inc()
		}
		return 0, err
	}
	c.checkpointedSeq = snap.LastSeq
	if st.mCheckpoints != nil {
		st.mCheckpoints.Inc()
		st.mCPSeconds.Observe(time.Since(start).Seconds())
		st.mReclaimed.Add(uint64(reclaimed))
	}
	return reclaimed, nil
}

// writeSnapshot durably writes the campaign's checkpoint snapshot.
func writeSnapshot(dir string, snap *journal.Snapshot) error {
	data, err := journal.EncodeSnapshot(snap)
	if err != nil {
		return fmt.Errorf("store: encode snapshot: %w", err)
	}
	if err := journal.WriteFileAtomic(filepath.Join(dir, snapFile), bytes.NewReader(data)); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	return nil
}

// recoverAll scans the data directory and rebuilds every campaign
// found there.
func (st *Store) recoverAll() error {
	entries, err := os.ReadDir(st.campaignsRoot())
	if err != nil {
		return fmt.Errorf("store: scan %s: %w", st.campaignsRoot(), err)
	}
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		if err := st.recoverCampaign(e.Name()); err != nil {
			return err
		}
	}
	return nil
}

// recoverCampaign rebuilds one campaign from its directory: meta.json
// for configuration, snapshot.bin for the checkpointed base state, and
// journal.log for the suffix of events after it. A torn final journal
// record is truncated away (counted on itree_journal_torn_tails_total);
// stray .tmp files from interrupted checkpoints are removed.
func (st *Store) recoverCampaign(id string) error {
	if err := ValidateID(id); err != nil {
		return fmt.Errorf("store: recover: %w", err)
	}
	dir := filepath.Join(st.campaignsRoot(), id)
	metaRaw, err := os.ReadFile(filepath.Join(dir, "meta.json"))
	if err != nil {
		return fmt.Errorf("store: recover %s: %w", id, err)
	}
	var meta Meta
	if err := unmarshalStrictID(metaRaw, &meta, id); err != nil {
		return err
	}
	mech, err := st.newMechanism(meta)
	if err != nil {
		return err
	}
	// Interrupted atomic writes never got renamed; they are garbage.
	os.Remove(filepath.Join(dir, snapFile+".tmp"))
	os.Remove(filepath.Join(dir, "journal.log.tmp"))
	os.Remove(filepath.Join(dir, "meta.json.tmp"))

	snap, err := readSnapshot(dir)
	if err != nil {
		return fmt.Errorf("store: recover %s: %w", id, err)
	}
	events, err := recoverJournal(filepath.Join(dir, journalFile))
	if err != nil {
		return fmt.Errorf("store: recover %s: %w", id, err)
	}
	c := &Campaign{Meta: meta, dir: dir}
	if snap != nil {
		c.checkpointedSeq = snap.LastSeq
	}
	// The journal may still contain events the snapshot covers (crash
	// between snapshot rename and compaction); server.Recover skips
	// them, and journal.State.Apply refuses a gap after the snapshot.
	lastSeq := c.checkpointedSeq
	if n := len(events); n > 0 && events[n-1].Seq > lastSeq {
		lastSeq = events[n-1].Seq
	}
	fw, err := journal.OpenFile(filepath.Join(dir, journalFile), st.cfg.Sync, st.cfg.SyncInterval)
	if err != nil {
		return err
	}
	c.fw = fw
	c.srv = server.New(mech, st.serverOptions(c, lastSeq+1)...)
	if err := server.Recover(c.srv, snap, events); err != nil {
		st.release(c)
		return fmt.Errorf("store: recover %s: %w", id, err)
	}
	c.handler = c.srv.Handler()
	if !st.put(c) {
		st.release(c)
		return fmt.Errorf("store: duplicate campaign %q on disk", id)
	}
	st.attachAudit(c)
	return nil
}

// readSnapshot loads the campaign's checkpoint snapshot; no file means
// no checkpoint has been taken yet. A snapshot.json left by a release
// that checkpointed in JSON is refused rather than ignored: the journal
// beside it was compacted against it, so recovering without it would
// silently lose every event it covers.
func readSnapshot(dir string) (*journal.Snapshot, error) {
	old := filepath.Join(dir, "snapshot.json")
	switch _, err := os.Lstat(old); {
	case err == nil:
		return nil, fmt.Errorf("%s is a JSON snapshot from an older release; migrate it with `itree convert -kind snapshot -to binary %s -o %s`",
			old, old, filepath.Join(dir, snapFile))
	case !errors.Is(err, fs.ErrNotExist):
		return nil, err
	}
	path := filepath.Join(dir, snapFile)
	data, err := os.ReadFile(path)
	if errors.Is(err, fs.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	snap, err := journal.DecodeSnapshot(data)
	if err != nil {
		return nil, fmt.Errorf("snapshot %s: %w", path, err)
	}
	return snap, nil
}

// recoverJournal reads a journal file, repairing a torn tail by
// truncating the partial final record so appends can continue. Any
// other decode error, a JSON-lines journal included, fails recovery and
// leaves the file untouched. A missing file is an empty journal.
func recoverJournal(path string) ([]journal.Event, error) {
	data, err := os.ReadFile(path)
	if errors.Is(err, fs.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	events, err := journal.Read(bytes.NewReader(data))
	var torn *journal.TornTailError
	switch {
	case err == nil:
	case errors.As(err, &torn):
		if terr := os.Truncate(path, torn.Offset); terr != nil {
			return nil, fmt.Errorf("truncate torn tail: %w", terr)
		}
	default:
		return nil, err
	}
	return events, nil
}

// unmarshalStrictID decodes meta.json and cross-checks the embedded id
// against the directory name, catching manual copy mistakes.
func unmarshalStrictID(data []byte, meta *Meta, id string) error {
	if err := json.Unmarshal(data, meta); err != nil {
		return fmt.Errorf("store: recover %s: meta.json: %w", id, err)
	}
	if meta.ID != id {
		return fmt.Errorf("store: recover %s: meta.json claims id %q", id, meta.ID)
	}
	return nil
}
