package replica

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"hash"
	"io"
	"log"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"incentivetree/internal/journal"
	"incentivetree/internal/obs"
)

// Follower tunables (overridable via Options).
const (
	defaultRefresh    = 2 * time.Second
	defaultWait       = time.Second
	defaultMaxBackoff = 2 * time.Second
	minBackoff        = 50 * time.Millisecond
	// applyBatchMax bounds events applied per write-lock acquisition
	// while catching up, so reads interleave with a large backlog.
	applyBatchMax = 512
)

// Applier is the follower-side deployment of one campaign:
// *server.Server satisfies it.
type Applier interface {
	ApplyReplicated(events []journal.Event) error
	LastSeq() uint64
}

// Target is the follower-side campaign collection the Manager
// populates. *store.Store in follower mode implements it: Adopt
// installs (or replaces) a campaign from a replicated snapshot, Drop
// removes one that disappeared from the primary.
type Target interface {
	Adopt(meta Meta, snap journal.Snapshot) (Applier, error)
	Drop(id string) error
}

// Options configure a Manager.
type Options struct {
	// Primary is the primary's base URL, e.g. "http://10.0.0.1:8080".
	Primary string
	// Target receives replicated campaigns. Required.
	Target Target
	// Registry, when set, receives the replica metric family.
	Registry *obs.Registry
	// Client is the HTTP client for primary requests (default: a client
	// with no overall timeout, since journal requests long-poll).
	Client *http.Client
	// MaxStaleness bounds follower reads: beyond it the Handler answers
	// 503. Zero disables the bound (reads always serve, however stale).
	MaxStaleness time.Duration
	// Refresh is the campaign-list poll period (default 2s).
	Refresh time.Duration
	// Wait is the journal long-poll hold requested from the primary
	// (default 1s). It bounds how stale an idle, healthy follower can
	// be: staleness is confirmed once per completed poll.
	Wait time.Duration
	// MaxBackoff caps the retry backoff after stream failures
	// (default 2s, starting at 50ms).
	MaxBackoff time.Duration
}

// SyncState classifies a campaign's replication state on a follower.
type SyncState int

const (
	// Untracked: the Manager is not replicating this campaign.
	Untracked SyncState = iota
	// Unsynced: replication is starting but no snapshot has been
	// adopted yet — there is no state to serve.
	Unsynced
	// Synced: the campaign serves replicated state (possibly stale).
	Synced
)

// Manager replicates every campaign of one primary into a Target and
// serves the follower side of the staleness contract. Create with
// NewManager, drive with Run.
type Manager struct {
	opts    Options
	primary string
	client  *http.Client

	mu    sync.Mutex
	tails map[string]*tail

	// listed flips once the first campaign listing succeeds; before
	// that, every read is answered 503 (the follower knows nothing).
	listed atomic.Bool

	mApplied     *obs.Counter
	mResyncs     *obs.Counter
	mDisconnects *obs.Counter
	mStaleReads  *obs.Counter
}

// NewManager builds a Manager over opts.
func NewManager(opts Options) (*Manager, error) {
	if opts.Primary == "" {
		return nil, errors.New("replica: Options.Primary is required")
	}
	if opts.Target == nil {
		return nil, errors.New("replica: Options.Target is required")
	}
	if opts.Refresh <= 0 {
		opts.Refresh = defaultRefresh
	}
	if opts.Wait <= 0 {
		opts.Wait = defaultWait
	}
	if opts.MaxBackoff <= 0 {
		opts.MaxBackoff = defaultMaxBackoff
	}
	m := &Manager{
		opts:         opts,
		primary:      strings.TrimRight(opts.Primary, "/"),
		client:       opts.Client,
		tails:        make(map[string]*tail),
		mApplied:     new(obs.Counter),
		mResyncs:     new(obs.Counter),
		mDisconnects: new(obs.Counter),
		mStaleReads:  new(obs.Counter),
	}
	if m.client == nil {
		m.client = &http.Client{}
	}
	if reg := opts.Registry; reg != nil {
		m.mApplied = reg.Counter("itree_replica_applied_total",
			"Journal events applied from the primary.")
		m.mResyncs = reg.Counter("itree_replica_resyncs_total",
			"Snapshot bootstraps: initial syncs plus gap- or divergence-forced re-bootstraps.")
		m.mDisconnects = reg.Counter("itree_replica_disconnects_total",
			"Journal-stream failures that triggered a reconnect with backoff.")
		m.mStaleReads = reg.Counter("itree_replica_stale_reads_total",
			"Follower reads rejected with 503 for exceeding the staleness bound (or pre-sync).")
	}
	return m, nil
}

// tail is the replication state of one campaign on the follower.
type tail struct {
	id      string
	cancel  context.CancelFunc
	done    chan struct{}
	started time.Time

	applier Applier // owned by the tail goroutine after bootstrap

	synced        atomic.Bool   // a snapshot is adopted and the stream is trusted
	applied       atomic.Uint64 // last sequence replayed into the Target
	committed     atomic.Uint64 // highest committed sequence learned from the primary
	confirmedNano atomic.Int64  // wall clock of the last confirmed caught-up poll
	resyncs       atomic.Uint64
	disconnects   atomic.Uint64

	// hashMu guards the rolling hash of applied record bytes (canonical
	// journal encoding) since baseSeq — the journal-hash half of the
	// byte-identity tests.
	hashMu  sync.Mutex
	hash    hash.Hash
	baseSeq uint64
}

func (t *tail) confirm() { t.confirmedNano.Store(time.Now().UnixNano()) }

// storeMax raises a to v if v is larger.
func storeMax(a *atomic.Uint64, v uint64) {
	for {
		old := a.Load()
		if v <= old || a.CompareAndSwap(old, v) {
			return
		}
	}
}

// Run drives replication until ctx is cancelled: it polls the
// primary's campaign list, keeps one tailing goroutine per campaign,
// and tears down campaigns that disappear. It always returns nil after
// a clean shutdown (tails drained).
func (m *Manager) Run(ctx context.Context) error {
	ticker := time.NewTicker(m.opts.Refresh)
	defer ticker.Stop()
	m.refresh(ctx)
	for {
		select {
		case <-ctx.Done():
			m.stopAll()
			return nil
		case <-ticker.C:
			m.refresh(ctx)
		}
	}
}

// refresh reconciles the tail set against the primary's campaign list.
// Listing failures keep the current set: existing tails back off on
// their own, and serving (bounded-stale) state through a primary
// outage is the point of a replica.
func (m *Manager) refresh(ctx context.Context) {
	ids, err := m.listCampaigns(ctx)
	if err != nil {
		if ctx.Err() == nil {
			log.Printf("replica: list campaigns: %v", err)
		}
		return
	}
	m.listed.Store(true)
	want := make(map[string]bool, len(ids))
	for _, id := range ids {
		want[id] = true
	}
	m.mu.Lock()
	var stale []*tail
	for id, t := range m.tails {
		if !want[id] {
			stale = append(stale, t)
			delete(m.tails, id)
		}
	}
	var fresh []string
	for _, id := range ids {
		if _, ok := m.tails[id]; !ok {
			fresh = append(fresh, id)
			m.tails[id] = m.newTail(ctx, id)
		}
	}
	m.mu.Unlock()
	for _, t := range stale {
		t.cancel()
		<-t.done
		m.unregisterGauges(t.id)
		if err := m.opts.Target.Drop(t.id); err != nil {
			log.Printf("replica: drop %s: %v", t.id, err)
		}
	}
	_ = fresh
}

// newTail starts replicating one campaign. Caller holds m.mu.
func (m *Manager) newTail(ctx context.Context, id string) *tail {
	tctx, cancel := context.WithCancel(ctx)
	t := &tail{
		id:      id,
		cancel:  cancel,
		done:    make(chan struct{}),
		started: time.Now(),
		hash:    sha256.New(),
	}
	m.registerGauges(id)
	go m.runTail(tctx, t)
	return t
}

func (m *Manager) registerGauges(id string) {
	reg := m.opts.Registry
	if reg == nil {
		return
	}
	reg.GaugeFunc("itree_replica_lag_records",
		"Journal records the primary has committed beyond this follower.", func() float64 {
			records, _, _ := m.Staleness(id)
			return float64(records)
		}, "campaign", id)
	reg.GaugeFunc("itree_replica_lag_seconds",
		"Seconds since this follower last confirmed it was caught up with the primary.", func() float64 {
			_, age, state := m.Staleness(id)
			if state == Untracked {
				return 0
			}
			return age.Seconds()
		}, "campaign", id)
}

func (m *Manager) unregisterGauges(id string) {
	if reg := m.opts.Registry; reg != nil {
		reg.Unregister("itree_replica_lag_records", "campaign", id)
		reg.Unregister("itree_replica_lag_seconds", "campaign", id)
	}
}

// stopAll cancels and drains every tail (shutdown path). Replicated
// state stays in the Target: the process is exiting anyway, and tests
// inspect it after Run returns.
func (m *Manager) stopAll() {
	m.mu.Lock()
	tails := make([]*tail, 0, len(m.tails))
	for _, t := range m.tails {
		tails = append(tails, t)
	}
	m.tails = make(map[string]*tail)
	m.mu.Unlock()
	for _, t := range tails {
		t.cancel()
		<-t.done
		m.unregisterGauges(t.id)
	}
}

// runTail is one campaign's replication loop: bootstrap when needed,
// stream, and back off exponentially on failures.
func (m *Manager) runTail(ctx context.Context, t *tail) {
	defer close(t.done)
	backoff := minBackoff
	for ctx.Err() == nil {
		err := m.syncOnce(ctx, t)
		if ctx.Err() != nil {
			return
		}
		if err == nil {
			backoff = minBackoff
			continue
		}
		t.disconnects.Add(1)
		m.mDisconnects.Inc()
		select {
		case <-ctx.Done():
			return
		case <-time.After(backoff):
		}
		if backoff *= 2; backoff > m.opts.MaxBackoff {
			backoff = m.opts.MaxBackoff
		}
	}
}

// syncOnce performs one protocol round: a snapshot bootstrap if the
// campaign is not synced, then one journal poll.
func (m *Manager) syncOnce(ctx context.Context, t *tail) error {
	if !t.synced.Load() {
		if err := m.bootstrap(ctx, t); err != nil {
			return err
		}
	}
	return m.tailOnce(ctx, t)
}

// bootstrap adopts the primary's current snapshot, resetting the
// applied position and the record hash.
func (m *Manager) bootstrap(ctx context.Context, t *tail) error {
	resp, err := m.get(ctx, "/v1/campaigns/"+t.id+"/replica/snapshot")
	if err != nil {
		return err
	}
	defer drain(resp)
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("snapshot %s: HTTP %d", t.id, resp.StatusCode)
	}
	committedHdr, _ := strconv.ParseUint(resp.Header.Get(HeaderCommittedSeq), 10, 64)
	var meta Meta
	if err := json.Unmarshal([]byte(resp.Header.Get(HeaderMeta)), &meta); err != nil {
		return fmt.Errorf("snapshot %s: meta: %w", t.id, err)
	}
	if meta.ID != t.id {
		return fmt.Errorf("snapshot %s: meta claims campaign %q", t.id, meta.ID)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return fmt.Errorf("snapshot %s: read: %w", t.id, err)
	}
	snap, err := journal.DecodeSnapshot(body) // its CRC covers the whole body
	if err != nil {
		return fmt.Errorf("snapshot %s: decode: %w", t.id, err)
	}
	applier, err := m.opts.Target.Adopt(meta, *snap)
	if err != nil {
		return fmt.Errorf("adopt %s: %w", t.id, err)
	}
	base := snap.LastSeq
	t.applier = applier
	t.hashMu.Lock()
	t.hash = sha256.New()
	t.baseSeq = base
	t.hashMu.Unlock()
	t.applied.Store(base)
	t.committed.Store(base)
	storeMax(&t.committed, committedHdr)
	t.synced.Store(true)
	t.resyncs.Add(1)
	m.mResyncs.Inc()
	if base >= t.committed.Load() {
		t.confirm()
	}
	return nil
}

// tailOnce issues one long-poll journal request and applies whatever
// arrives. A 410 flips the campaign back to unsynced (re-bootstrap on
// the next round, without backoff); stream errors reconnect with
// backoff after applying the complete prefix that did arrive.
func (m *Manager) tailOnce(ctx context.Context, t *tail) error {
	from := t.applied.Load() + 1
	resp, err := m.get(ctx, fmt.Sprintf("/v1/campaigns/%s/replica/journal?from=%d&wait=%s", t.id, from, m.opts.Wait))
	if err != nil {
		return err
	}
	defer drain(resp)
	switch resp.StatusCode {
	case http.StatusOK:
	case http.StatusGone:
		// The records we need were compacted away: snapshot required.
		t.synced.Store(false)
		return nil
	default:
		return fmt.Errorf("journal %s: HTTP %d", t.id, resp.StatusCode)
	}
	committedHdr, _ := strconv.ParseUint(resp.Header.Get(HeaderCommittedSeq), 10, 64)
	if committedHdr < t.applied.Load() {
		// The primary is behind what we already applied: it lost events
		// (restored from an older state). Our suffix never happened —
		// re-bootstrap to converge on the primary's truth.
		t.synced.Store(false)
		return nil
	}
	storeMax(&t.committed, committedHdr)

	dec := journal.NewDecoder(resp.Body)
	dec.ExpectSeq(from)
	batch := make([]journal.Event, 0, applyBatchMax)
	var streamErr error
	for streamErr == nil {
		e, err := dec.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			// Torn record (connection cut mid-line), wire gap, or
			// corruption: keep the complete prefix, reconnect for the
			// rest. Persistent gaps resolve through the 410 path.
			streamErr = fmt.Errorf("journal %s: stream: %w", t.id, err)
			break
		}
		batch = append(batch, e)
		if len(batch) >= applyBatchMax {
			if err := m.apply(t, batch); err != nil {
				return err
			}
			batch = batch[:0]
		}
	}
	if err := m.apply(t, batch); err != nil {
		return err
	}
	if streamErr != nil {
		return streamErr
	}
	if t.applied.Load() >= t.committed.Load() {
		// A completed poll with nothing outstanding: the follower was
		// provably caught up at this instant.
		t.confirm()
	}
	return nil
}

// apply replays one batch into the campaign's deployment and extends
// the rolling record hash.
func (m *Manager) apply(t *tail, batch []journal.Event) error {
	if len(batch) == 0 {
		return nil
	}
	if err := t.applier.ApplyReplicated(batch); err != nil {
		// Divergence (the batch applied none of its events): discard and
		// re-bootstrap rather than trust the stream any further.
		t.synced.Store(false)
		return fmt.Errorf("apply %s: %w", t.id, err)
	}
	last := batch[len(batch)-1].Seq
	t.applied.Store(last)
	storeMax(&t.committed, last)
	m.mApplied.Add(uint64(len(batch)))
	t.hashMu.Lock()
	enc := journal.NewEncoder(t.hash)
	for _, e := range batch {
		// Events came off a Decoder, so they re-encode losslessly to
		// the primary's file bytes; sha256 writes cannot fail.
		_ = enc.Encode(e)
	}
	t.hashMu.Unlock()
	return nil
}

// listCampaigns fetches the primary's campaign ids.
func (m *Manager) listCampaigns(ctx context.Context) ([]string, error) {
	resp, err := m.get(ctx, "/v1/campaigns")
	if err != nil {
		return nil, err
	}
	defer drain(resp)
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("HTTP %d", resp.StatusCode)
	}
	var list []struct {
		ID string `json:"id"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		return nil, err
	}
	ids := make([]string, 0, len(list))
	for _, c := range list {
		ids = append(ids, c.ID)
	}
	return ids, nil
}

func (m *Manager) get(ctx context.Context, path string) (*http.Response, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, m.primary+path, nil)
	if err != nil {
		return nil, err
	}
	return m.client.Do(req)
}

// drain consumes the rest of a response body so connections are
// reused, then closes it.
func drain(resp *http.Response) {
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
}

// Staleness reports a campaign's replication lag: outstanding records,
// the age since the follower last confirmed it was caught up, and the
// sync state. For Unsynced campaigns the age counts from tail start.
func (m *Manager) Staleness(id string) (records uint64, age time.Duration, state SyncState) {
	m.mu.Lock()
	t := m.tails[id]
	m.mu.Unlock()
	if t == nil {
		return 0, 0, Untracked
	}
	applied, committed := t.applied.Load(), t.committed.Load()
	if committed > applied {
		records = committed - applied
	}
	if t.resyncs.Load() == 0 {
		return records, time.Since(t.started), Unsynced
	}
	conf := t.confirmedNano.Load()
	if conf == 0 {
		return records, time.Since(t.started), Synced
	}
	return records, time.Since(time.Unix(0, conf)), Synced
}

// Status is a point-in-time view of one campaign's replication state,
// for operations and the byte-identity tests.
type Status struct {
	ID           string
	State        SyncState
	AppliedSeq   uint64
	CommittedSeq uint64
	LagRecords   uint64
	Age          time.Duration
	Resyncs      uint64
	Disconnects  uint64
	// BaseSeq is the snapshot sequence the current bootstrap started
	// from; AppliedHash is the hex sha256 of every record byte applied
	// since (canonical journal encoding). A follower bootstrapped at
	// BaseSeq 0 hashes exactly the primary's journal file.
	BaseSeq     uint64
	AppliedHash string
}

// Status returns the replication status of one campaign.
func (m *Manager) Status(id string) (Status, bool) {
	m.mu.Lock()
	t := m.tails[id]
	m.mu.Unlock()
	if t == nil {
		return Status{}, false
	}
	records, age, state := m.Staleness(id)
	t.hashMu.Lock()
	sum := hex.EncodeToString(t.hash.Sum(nil))
	base := t.baseSeq
	t.hashMu.Unlock()
	return Status{
		ID:           id,
		State:        state,
		AppliedSeq:   t.applied.Load(),
		CommittedSeq: t.committed.Load(),
		LagRecords:   records,
		Age:          age,
		Resyncs:      t.resyncs.Load(),
		Disconnects:  t.disconnects.Load(),
		BaseSeq:      base,
		AppliedHash:  sum,
	}, true
}
