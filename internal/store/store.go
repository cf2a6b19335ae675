// Package store is the multi-tenant serving layer of the Incentive Tree
// daemon: it owns many independent campaigns per process, each a full
// server.Server deployment (referral tree + name index + maintained
// reward aggregates + its own write-ahead journal under a data
// directory), with campaign lookup sharded across lock-striped maps so
// campaigns never contend with each other.
//
// # Data directory layout
//
//	<data-dir>/campaigns/<id>/meta.json      campaign config (mechanism, params)
//	<data-dir>/campaigns/<id>/snapshot.bin   last durable checkpoint (binary)
//	<data-dir>/campaigns/<id>/journal.log    binary records after the checkpoint
//
// # Durability contract
//
// Every write is appended to the campaign's journal before the HTTP
// response is sent (see internal/journal for the sync policy knob). A
// background checkpointer periodically — and whenever a journal exceeds
// a size threshold — writes an atomic snapshot (temp file + fsync +
// rename + directory fsync) and then compacts the journal down to the
// events the snapshot does not cover, so recovery cost is O(snapshot +
// suffix) instead of O(all events ever). Every file or directory the
// store creates or renames has its directory fsynced, so the entry
// survives a power loss. Recovery rebuilds each campaign from snapshot +
// journal suffix, tolerating a torn final journal record (crash
// mid-append) by truncating it away. Files from releases that wrote
// JSON to disk (a snapshot.json, or JSON lines in journal.log) fail
// recovery with an error naming `itree convert`, the migrator; they
// are never truncated or skipped.
package store

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"sync"
	"time"

	"incentivetree/internal/audit"
	"incentivetree/internal/core"
	"incentivetree/internal/journal"
	"incentivetree/internal/obs"
	"incentivetree/internal/replica"
	"incentivetree/internal/server"
)

// DefaultID is the campaign that backs the legacy single-campaign
// /v1/* endpoints.
const DefaultID = "default"

// Defaults for Config fields left zero.
const (
	DefaultCheckpointBytes  = 1 << 20 // compact once a journal passes 1 MiB
	DefaultCheckpointEvery  = 30 * time.Second
	defaultMechanismFallbck = "tdrm"
)

// shardCount is the number of lock stripes for campaign lookup.
const shardCount = 16

// Config parameterizes a Store.
type Config struct {
	// DataDir is the root of the on-disk layout. Empty means ephemeral:
	// campaigns live in memory only, with no journals or checkpoints.
	DataDir string
	// CheckpointInterval is the period of the background checkpointer;
	// every tick checkpoints campaigns with uncheckpointed events. Zero
	// means DefaultCheckpointEvery; negative disables periodic
	// checkpoints (size-triggered ones still run).
	CheckpointInterval time.Duration
	// CheckpointBytes checkpoints a campaign as soon as its journal
	// exceeds this many bytes. Zero means DefaultCheckpointBytes;
	// negative disables the size trigger.
	CheckpointBytes int64
	// Sync is the journal sync policy for campaign journals (see
	// journal.SyncPolicy). Empty means journal.SyncOS, the historical
	// behavior.
	Sync journal.SyncPolicy
	// SyncInterval is the flush period under journal.SyncInterval.
	SyncInterval time.Duration
	// BatchMax caps the writes per group commit in each campaign's
	// write queue (see server.WithGroupCommit). Zero or negative means
	// server.DefaultBatchMax; 1 commits per event in arrival order
	// (journals byte-identical to direct writes).
	BatchMax int
	// QueueDepth bounds each campaign's write queue (admission
	// control); a full queue sheds writes with 429. Zero or negative
	// means server.DefaultQueueDepth.
	QueueDepth int
	// AuditInterval enables the online Sybil audit service: every
	// campaign gets a background auditor (see internal/audit) that
	// scans on this period from the store's Run loop.
	// Zero or negative disables the service; followers never audit (the
	// primary's quarantine decisions replicate like any other write).
	AuditInterval time.Duration
	// AuditQuarantine lets auditors auto-quarantine flagged findings of
	// quarantine-grade severity (ε-chains, star bursts). Off, the
	// auditor only reports; quarantine stays an operator action.
	AuditQuarantine bool
	// EpochInterval enables periodic epoch settlement: every period the
	// store's Run loop settles each campaign's next payout epoch (see
	// journal.Ledger.Settle), freezing the served reward table into a
	// journal settle record; the pool accrues at the campaign's own Phi.
	// Zero or negative disables the ticker (settlement stays an
	// operator action via POST .../epochs/settle); followers never
	// settle — the primary's settle records replicate like any other
	// write.
	EpochInterval time.Duration
	// Metrics, when set, receives the store's gauges/counters and every
	// campaign's per-campaign domain gauges (labelled campaign="<id>").
	Metrics *obs.Registry
	// NewMechanism constructs the mechanism for a campaign; required.
	// The mechanism must have a local form (core.Mechanism.Local).
	NewMechanism func(name string, p core.Params) (core.Mechanism, error)
	// DefaultMechanism and DefaultParams configure the auto-created
	// "default" campaign (empty mechanism name means "tdrm").
	DefaultMechanism string
	DefaultParams    core.Params
	// Follower marks the store as a replication follower: campaigns are
	// installed by a replica.Manager (Adopt/Drop) rather than created
	// locally, no default campaign is provisioned, and DataDir must be
	// empty — follower state is rebuilt from the primary on start, by
	// design (see internal/replica).
	Follower bool
}

// Meta is the persisted configuration of one campaign (meta.json).
// Files written by releases that had a per-campaign "incremental"
// switch still decode; the field is ignored.
type Meta struct {
	ID          string      `json:"id"`
	Mechanism   string      `json:"mechanism"`
	Params      core.Params `json:"params"`
	CreatedUnix int64       `json:"created_unix,omitempty"`
}

// Campaign is one tenant: a server.Server deployment plus its
// durability state.
type Campaign struct {
	Meta Meta

	srv     *server.Server
	handler http.Handler        // cached srv.Handler()
	dir     string              // "" = ephemeral
	fw      *journal.FileWriter // nil = ephemeral
	auditor *audit.Auditor      // nil = audit service disabled

	// cpMu serializes checkpoints of this campaign.
	cpMu sync.Mutex
	// checkpointedSeq is the last sequence number covered by a durable
	// snapshot (guarded by cpMu for writes; reads are racy but only
	// used as a pending-work hint and re-checked under cpMu).
	checkpointedSeq uint64
	// kicked coalesces size-trigger checkpoint requests.
	kicked bool
	kickMu sync.Mutex
}

// Server exposes the campaign's underlying deployment (for seeding,
// tests, and direct programmatic writes).
func (c *Campaign) Server() *server.Server { return c.srv }

// Auditor exposes the campaign's background auditor; nil when the
// audit service is disabled.
func (c *Campaign) Auditor() *audit.Auditor { return c.auditor }

// attachAudit wires the audit service onto a freshly installed
// campaign: the auditor reads the server's committed versions and backs
// the audit HTTP endpoints. The auditor's first scan is never skipped,
// so writes from before it attached are examined too.
func (st *Store) attachAudit(c *Campaign) {
	if st.cfg.AuditInterval <= 0 || st.cfg.Follower {
		return
	}
	var labels []string
	if st.cfg.Metrics != nil {
		labels = []string{"campaign", c.Meta.ID}
	}
	a := audit.New(audit.Config{
		AutoQuarantine: st.cfg.AuditQuarantine,
		Registry:       st.cfg.Metrics,
		Labels:         labels,
	}, c.srv)
	c.auditor = a
	c.srv.SetAuditor(a)
}

var idPattern = regexp.MustCompile(`^[a-z0-9][a-z0-9_-]{0,63}$`)

// ValidateID checks that a campaign id is usable as a directory name
// and URL path segment: lowercase alphanumerics, '-' and '_', at most
// 64 characters, not starting with punctuation.
func ValidateID(id string) error {
	if !idPattern.MatchString(id) {
		return fmt.Errorf("store: invalid campaign id %q (want %s)", id, idPattern)
	}
	return nil
}

// shard is one lock stripe of the campaign map.
type shard struct {
	mu sync.RWMutex
	m  map[string]*Campaign
}

// Store is a sharded collection of campaigns with a background
// checkpointer. Create/Get/Delete are safe for concurrent use.
type Store struct {
	cfg    Config
	shards [shardCount]shard

	// checkpoint instrumentation (nil-safe wrappers when cfg.Metrics is
	// unset).
	mCheckpoints *obs.Counter
	mCPErrors    *obs.Counter
	mCPSeconds   *obs.Histogram
	mReclaimed   *obs.Counter

	// pub serves the primary side of the replication protocol (see
	// internal/replica and the replica routes in Handler).
	pub *replica.Publisher

	kick    chan *Campaign
	closeMu sync.Mutex
	closed  bool
}

// Open builds a store from cfg and, when cfg.DataDir is set, recovers
// every campaign found on disk (snapshot + journal suffix, tolerating
// torn tails). The "default" campaign is created if it does not exist
// yet. Call Run to start the background checkpointer and Close to
// flush and release journals. A failed Open releases every campaign it
// installed.
func Open(cfg Config) (_ *Store, err error) {
	if cfg.NewMechanism == nil {
		return nil, errors.New("store: Config.NewMechanism is required")
	}
	if cfg.Follower && cfg.DataDir != "" {
		return nil, errors.New("store: a follower store cannot have a DataDir (state is replicated, not persisted)")
	}
	if cfg.CheckpointInterval == 0 {
		cfg.CheckpointInterval = DefaultCheckpointEvery
	}
	if cfg.CheckpointBytes == 0 {
		cfg.CheckpointBytes = DefaultCheckpointBytes
	}
	if cfg.DefaultMechanism == "" {
		cfg.DefaultMechanism = defaultMechanismFallbck
	}
	if cfg.DefaultParams == (core.Params{}) {
		cfg.DefaultParams = core.DefaultParams()
	}
	st := &Store{
		cfg:  cfg,
		kick: make(chan *Campaign, 64),
	}
	for i := range st.shards {
		st.shards[i].m = make(map[string]*Campaign)
	}
	defer func() {
		if err != nil {
			for _, c := range st.List() {
				st.release(c)
			}
		}
	}()
	if reg := cfg.Metrics; reg != nil {
		reg.GaugeFunc("itree_campaigns",
			"Number of campaigns hosted by the store.", func() float64 {
				return float64(st.Len())
			})
		st.mCheckpoints = reg.Counter("itree_checkpoints_total",
			"Campaign checkpoints completed (snapshot written + journal compacted).")
		st.mCPErrors = reg.Counter("itree_checkpoint_errors_total",
			"Campaign checkpoints that failed.")
		st.mCPSeconds = reg.Histogram("itree_checkpoint_seconds",
			"Campaign checkpoint latency in seconds.", nil)
		st.mReclaimed = reg.Counter("itree_journal_reclaimed_bytes_total",
			"Journal bytes dropped by checkpoint compaction.")
	}
	if cfg.DataDir != "" {
		if err := journal.MkdirAll(st.campaignsRoot()); err != nil {
			return nil, fmt.Errorf("store: %w", err)
		}
		if err := st.recoverAll(); err != nil {
			return nil, err
		}
	}
	st.pub = replica.NewPublisher(cfg.Metrics)
	if cfg.Follower {
		// Campaigns arrive via Adopt once the replica.Manager syncs.
		return st, nil
	}
	if _, ok := st.Get(DefaultID); !ok {
		if _, err := st.Create(Meta{ID: DefaultID, Mechanism: cfg.DefaultMechanism, Params: cfg.DefaultParams}); err != nil {
			return nil, fmt.Errorf("store: default campaign: %w", err)
		}
	}
	return st, nil
}

func (st *Store) campaignsRoot() string {
	return filepath.Join(st.cfg.DataDir, "campaigns")
}

func (st *Store) shardFor(id string) *shard {
	h := fnv.New32a()
	h.Write([]byte(id))
	return &st.shards[h.Sum32()%shardCount]
}

// Get returns the campaign with the given id.
func (st *Store) Get(id string) (*Campaign, bool) {
	sh := st.shardFor(id)
	sh.mu.RLock()
	c, ok := sh.m[id]
	sh.mu.RUnlock()
	return c, ok
}

// Len returns the number of campaigns.
func (st *Store) Len() int {
	n := 0
	for i := range st.shards {
		st.shards[i].mu.RLock()
		n += len(st.shards[i].m)
		st.shards[i].mu.RUnlock()
	}
	return n
}

// List returns all campaigns sorted by id.
func (st *Store) List() []*Campaign {
	var out []*Campaign
	for i := range st.shards {
		st.shards[i].mu.RLock()
		for _, c := range st.shards[i].m {
			out = append(out, c)
		}
		st.shards[i].mu.RUnlock()
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Meta.ID < out[j].Meta.ID })
	return out
}

func (st *Store) put(c *Campaign) bool {
	sh := st.shardFor(c.Meta.ID)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if _, dup := sh.m[c.Meta.ID]; dup {
		return false
	}
	sh.m[c.Meta.ID] = c
	return true
}

// Create provisions a new campaign: its directory, meta.json, journal,
// and server. The campaign is immediately servable.
func (st *Store) Create(meta Meta) (*Campaign, error) {
	if err := ValidateID(meta.ID); err != nil {
		return nil, err
	}
	if meta.Mechanism == "" {
		meta.Mechanism = st.cfg.DefaultMechanism
	}
	if meta.Params == (core.Params{}) {
		meta.Params = st.cfg.DefaultParams
	}
	if _, exists := st.Get(meta.ID); exists {
		return nil, fmt.Errorf("store: campaign %q already exists", meta.ID)
	}
	if meta.CreatedUnix == 0 {
		meta.CreatedUnix = time.Now().Unix()
	}
	mech, err := st.newMechanism(meta)
	if err != nil {
		return nil, err
	}
	c := &Campaign{Meta: meta}
	if st.cfg.DataDir != "" {
		c.dir = filepath.Join(st.campaignsRoot(), meta.ID)
		if err := journal.MkdirAll(c.dir); err != nil {
			return nil, fmt.Errorf("store: %w", err)
		}
		if err := journal.WriteFileAtomic(filepath.Join(c.dir, "meta.json"), bytes.NewReader(mustJSON(meta))); err != nil {
			return nil, fmt.Errorf("store: %w", err)
		}
		fw, err := journal.OpenFile(filepath.Join(c.dir, journalFile), st.cfg.Sync, st.cfg.SyncInterval)
		if err != nil {
			return nil, err
		}
		c.fw = fw
	}
	c.srv = server.New(mech, st.serverOptions(c, 1)...)
	c.handler = c.srv.Handler()
	if !st.put(c) {
		st.release(c) // lost a create race
		return nil, fmt.Errorf("store: campaign %q already exists", meta.ID)
	}
	st.attachAudit(c)
	return c, nil
}

// newMechanism builds (and validates) the campaign's mechanism. The
// server serves rewards only through the local form, so a mechanism
// without one is refused.
func (st *Store) newMechanism(meta Meta) (core.Mechanism, error) {
	mech, err := st.cfg.NewMechanism(meta.Mechanism, meta.Params)
	if err != nil {
		return nil, fmt.Errorf("store: campaign %q: %w", meta.ID, err)
	}
	if mech.Local() == nil {
		return nil, fmt.Errorf("store: campaign %q: mechanism %s has no local form", meta.ID, mech.Name())
	}
	return mech, nil
}

// serverOptions assembles the per-campaign server options: journal
// writer (starting at nextSeq), labelled metrics, epoch budget and
// the write queue's bounds.
func (st *Store) serverOptions(c *Campaign, nextSeq uint64) []server.Option {
	var opts []server.Option
	if c.fw != nil {
		opts = append(opts, server.WithJournal(journal.NewWriter(c.fw, nextSeq)))
	}
	if st.cfg.Metrics != nil {
		opts = append(opts, server.WithMetricsLabels(st.cfg.Metrics, "campaign", c.Meta.ID))
	}
	return append(opts, server.WithGroupCommit(st.cfg.BatchMax, st.cfg.QueueDepth))
}

// release closes what installing c opened: its auditor, its journal and
// its metric series. It touches no files. A write still in c's queue
// then fails on the closed journal.
func (st *Store) release(c *Campaign) {
	if c.auditor != nil {
		c.auditor.Close()
	}
	if c.fw != nil {
		c.fw.Close()
	}
	if st.cfg.Metrics != nil {
		server.UnregisterMetrics(st.cfg.Metrics, "campaign", c.Meta.ID)
	}
}

// Delete removes a campaign from the store, closes its journal, and
// deletes its directory. In-flight requests against the campaign may
// fail with a journal-append error; new lookups 404.
func (st *Store) Delete(id string) error {
	if id == DefaultID {
		return fmt.Errorf("store: the %q campaign cannot be deleted", DefaultID)
	}
	sh := st.shardFor(id)
	sh.mu.Lock()
	c, ok := sh.m[id]
	delete(sh.m, id)
	sh.mu.Unlock()
	if !ok {
		return fmt.Errorf("store: unknown campaign %q", id)
	}
	// Exclude a concurrent checkpoint before tearing down files.
	c.cpMu.Lock()
	defer c.cpMu.Unlock()
	st.release(c)
	if c.dir != "" {
		if err := os.RemoveAll(c.dir); err != nil {
			return fmt.Errorf("store: delete %q: %w", id, err)
		}
	}
	return nil
}

// Close checkpoints every campaign with pending events and closes all
// journals. The store must not serve requests afterwards. Close does
// not wait for queued writes: stop serving first (itreed shuts its HTTP
// server down before closing the store), so every acknowledged write
// has committed. A write still queued may commit, or fail on the
// closed journal.
func (st *Store) Close() error {
	st.closeMu.Lock()
	if st.closed {
		st.closeMu.Unlock()
		return nil
	}
	st.closed = true
	st.closeMu.Unlock()
	var first error
	for _, c := range st.List() {
		if c.auditor != nil {
			c.auditor.Close()
		}
		if _, err := st.Checkpoint(c); err != nil && first == nil {
			first = err
		}
		if c.fw != nil {
			if err := c.fw.Close(); err != nil && first == nil {
				first = err
			}
		}
	}
	return first
}

// mustJSON marshals v, panicking on failure (the store's wire types
// cannot fail to encode).
func mustJSON(v any) []byte {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		panic(err)
	}
	return append(data, '\n')
}
