package store

import (
	"errors"
	"net/http"
	"path/filepath"

	"incentivetree/internal/journal"
	"incentivetree/internal/replica"
	"incentivetree/internal/server"
)

// journalFile is the campaign journal's file name under its directory
// (see the package comment's data-directory layout).
const journalFile = "journal.log"

// journalPath locates the campaign's journal file; empty for
// ephemeral or caller-managed campaigns, which cannot stream.
func (c *Campaign) journalPath() string {
	if c.dir == "" {
		return ""
	}
	return filepath.Join(c.dir, journalFile)
}

// primaryCampaign adapts a hosted campaign to the replication
// publisher's read-side view.
func (st *Store) primaryCampaign(c *Campaign) replica.PrimaryCampaign {
	return replica.PrimaryCampaign{
		Meta: replica.Meta{
			ID:        c.Meta.ID,
			Mechanism: c.Meta.Mechanism,
			Params:    c.Meta.Params,
		},
		Snapshot:        c.srv.SnapshotState,
		LastSeq:         c.srv.LastSeq,
		CheckpointedSeq: c.checkpointedSeqHint,
		JournalPath:     c.journalPath(),
	}
}

func (st *Store) handleReplicaSnapshot(w http.ResponseWriter, r *http.Request) {
	c, ok := st.Get(r.PathValue("id"))
	if !ok {
		writeJSON(w, http.StatusNotFound, errorResponse{"unknown campaign " + r.PathValue("id")})
		return
	}
	st.pub.ServeSnapshot(w, r, st.primaryCampaign(c))
}

func (st *Store) handleReplicaJournal(w http.ResponseWriter, r *http.Request) {
	c, ok := st.Get(r.PathValue("id"))
	if !ok {
		writeJSON(w, http.StatusNotFound, errorResponse{"unknown campaign " + r.PathValue("id")})
		return
	}
	st.pub.ServeJournal(w, r, st.primaryCampaign(c))
}

// Adopt installs (or refreshes) a campaign from a replicated snapshot,
// satisfying replica.Target. When the campaign already exists with the
// same mechanism configuration its deployment is restored in place
// (metric series and handler identity survive a re-bootstrap);
// otherwise a fresh deployment replaces it. Adopted campaigns run
// without a journal, and their write queues stay empty: writes never
// reach a follower (the replica middleware redirects them). The
// follower's reward aggregates fold the same tree the same way, so its
// reward bytes are identical to the primary's.
func (st *Store) Adopt(meta replica.Meta, snap journal.Snapshot) (replica.Applier, error) {
	if !st.cfg.Follower {
		return nil, errors.New("store: Adopt requires a follower-mode store")
	}
	if err := ValidateID(meta.ID); err != nil {
		return nil, err
	}
	sh := st.shardFor(meta.ID)
	sh.mu.RLock()
	old := sh.m[meta.ID]
	sh.mu.RUnlock()
	if old != nil && old.Meta.Mechanism == meta.Mechanism && old.Meta.Params == meta.Params {
		if err := old.srv.RestoreState(snap); err != nil {
			return nil, err
		}
		return old.srv, nil
	}
	mech, err := st.newMechanism(Meta{ID: meta.ID, Mechanism: meta.Mechanism, Params: meta.Params})
	if err != nil {
		return nil, err
	}
	c := &Campaign{Meta: Meta{
		ID:        meta.ID,
		Mechanism: meta.Mechanism,
		Params:    meta.Params,
	}}
	var opts []server.Option
	if st.cfg.Metrics != nil {
		opts = append(opts, server.WithMetricsLabels(st.cfg.Metrics, "campaign", meta.ID))
	}
	c.srv = server.New(mech, opts...)
	c.handler = c.srv.Handler()
	if err := c.srv.RestoreState(snap); err != nil {
		if st.cfg.Metrics != nil {
			server.UnregisterMetrics(st.cfg.Metrics, "campaign", meta.ID)
		}
		return nil, err
	}
	sh.mu.Lock()
	sh.m[meta.ID] = c
	sh.mu.Unlock()
	return c.srv, nil
}

// Drop removes a replicated campaign, satisfying replica.Target. It is
// idempotent and — unlike Delete — applies to the default campaign too
// and touches no files (follower campaigns have none).
func (st *Store) Drop(id string) error {
	sh := st.shardFor(id)
	sh.mu.Lock()
	c, ok := sh.m[id]
	delete(sh.m, id)
	sh.mu.Unlock()
	if !ok {
		return nil
	}
	st.release(c)
	return nil
}
