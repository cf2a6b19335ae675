// Package server exposes an Incentive Tree deployment as an in-memory
// JSON-over-HTTP referral service: participants join (optionally naming
// their solicitor), record contributions, and query their reward under
// the configured mechanism. This is the shape of the web campaign
// deployments the paper's introduction describes (sign-up links,
// referral codes, reward dashboards).
//
// Endpoints:
//
//	POST /v1/join        {"name": "...", "sponsor": "..."}   -> participant
//	POST /v1/contribute  {"name": "...", "amount": 1.5}      -> participant
//	GET  /v1/participants/{name}                             -> participant
//	GET  /v1/rewards                                         -> reward table
//	GET  /v1/leaderboard?k=N                                 -> top-K by reward
//	GET  /v1/tree                                            -> referral tree (nested JSON)
//	GET  /v1/stats                                           -> tree statistics
//	GET  /v1/epochs[/{n}]                                    -> settled payout epochs
//	POST /v1/epochs/settle                                   -> settle the next epoch
//	POST /v1/claims      {"name": "...", "epoch": N}         -> claim a settled share
//	GET  /v1/claims[?name=...]                               -> claims accounting
//	GET  /v1/healthz                                         -> 200 ok
//
// All state lives in memory behind a single RWMutex, as one
// journal.State. Every write commits through one function
// (commitLocked): journal.State.Apply checks and applies each event,
// one journal append records them, and a failed append undoes them.
// Rewards are served from one maintained aggregate per participant,
// the mechanism's local form (core.Local): a committed write re-folds
// only the root paths it touched, a participant read costs O(depth),
// and the full table is one O(n) pass. Every served reward equals the
// mechanism's Rewards bit for bit. HTTP joins and contributions are
// group-committed (see batch.go): they wait in a bounded queue that a
// drain goroutine, started by the first write into an idle queue,
// commits in arrival order with one lock acquisition, journal append
// and re-fold per batch; a full queue sheds with 429.
// The first table read of each committed version ranks the
// participants once, by reward then name, from the previous version's
// ranking: R(u) reads only u's subtree, so it recomputes and re-places
// only the ids the commits since re-folded, about five per
// contribution for TDRM, CDRM and Geometric. A quarantine flip, or a
// mechanism whose rewards read C(T) (L-Luxor, L-Pachira), recomputes
// and re-sorts them all. After that a leaderboard read builds only its
// k rows, and /v1/rewards builds all n and sorts them by name after
// releasing the lock (see readpath.go).
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"

	"incentivetree/internal/audit"
	"incentivetree/internal/core"
	"incentivetree/internal/journal"
	"incentivetree/internal/numeric"
	"incentivetree/internal/obs"
	"incentivetree/internal/tree"
)

// Server is the shared state behind the HTTP handler.
type Server struct {
	mech    core.Mechanism
	local   core.Local // mech.Local(), never nil
	journal *journal.Writer
	metrics *obs.Registry // nil = uninstrumented

	// The write queue (see batch.go). queueMu guards queue and draining
	// and is never held while taking mu; draining is set while a drain
	// goroutine runs.
	queueMu               sync.Mutex
	queue                 []*queuedWrite
	draining              bool
	batchMax, queueDepth  int
	shed, batches         *obs.Counter
	batchSize, commitTime *obs.Histogram

	// view is the read view of one committed version (see readpath.go);
	// viewMu serializes its builds and nests inside mu.
	view                 atomic.Pointer[readView]
	viewMu               sync.Mutex
	viewHits, viewMisses *obs.Counter
	// moved lists the ids re-folded since the view was last built, and
	// rerank is set when the next build should re-sort every id
	// instead (a quarantine flip, or more ids than an eighth of the
	// participants). Commits write
	// them under mu; a view build resets them under mu's read lock and
	// viewMu.
	moved  []tree.NodeID
	rerank bool

	mu sync.RWMutex
	// state changes only through commitLocked and ApplyReplicated; a
	// restore or recovery replaces it.
	state *journal.State
	// agg holds the local form's aggregate A(u) for every node. Only
	// committed state reaches it: a batch re-folds the root paths it
	// touched after its journal append succeeds (see refoldLocked).
	agg []float64
	// total is C(T) as tree.Total sums it, kept current only when the
	// local form reads it.
	total float64
	// auditor, when set, backs the audit report/scan endpoints (see
	// audit_http.go and SetAuditor).
	auditor *audit.Auditor
	// settleObs, when metrics are attached, counts settle/claim
	// operations (see settle_http.go).
	settleObs *settleCounters
	// version counts commits that change what a read returns, and
	// restores; it keys the read view and never moves backwards.
	version uint64
}

// New creates an empty deployment under the mechanism, which must have
// a local form (m.Local() != nil); New panics otherwise.
func New(m core.Mechanism, opts ...Option) *Server {
	local := m.Local()
	if local == nil {
		panic(fmt.Sprintf("server: mechanism %s has no local form", m.Name()))
	}
	s := &Server{mech: m, local: local, state: journal.NewState(), agg: []float64{0},
		viewHits: new(obs.Counter), viewMisses: new(obs.Counter),
		batchMax: DefaultBatchMax, queueDepth: DefaultQueueDepth,
		shed: new(obs.Counter), batches: new(obs.Counter),
		batchSize: obs.NewHistogram(batchSizeBuckets), commitTime: obs.NewHistogram(nil)}
	for _, opt := range opts {
		opt(s)
	}
	return s
}

// Participant is the wire representation of one participant's state.
type Participant struct {
	Name         string  `json:"name"`
	Sponsor      string  `json:"sponsor,omitempty"`
	Contribution float64 `json:"contribution"`
	Reward       float64 `json:"reward"`
	Profit       float64 `json:"profit"`
	Recruits     int     `json:"recruits"`
	// Quarantined marks a participant whose payout is withheld because
	// it (or an ancestor) carries a quarantine flag; the contribution
	// stays as recorded.
	Quarantined bool `json:"quarantined,omitempty"`
}

type joinRequest struct {
	Name    string `json:"name"`
	Sponsor string `json:"sponsor"`
}

type contributeRequest struct {
	Name   string  `json:"name"`
	Amount float64 `json:"amount"`
}

type rewardsResponse struct {
	Mechanism    string        `json:"mechanism"`
	Total        float64       `json:"total_contribution"`
	TotalReward  float64       `json:"total_reward"`
	Budget       float64       `json:"budget"`
	Participants []Participant `json:"participants"`
}

type errorResponse struct {
	Error string `json:"error"`
}

// Handler returns the HTTP API. With WithMetricsLabels configured,
// every route is wrapped in obs.Middleware, recording request counts,
// status classes, and latency histograms keyed by route pattern.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/join", s.handleJoin)
	mux.HandleFunc("POST /v1/contribute", s.handleContribute)
	mux.HandleFunc("GET /v1/participants/{name}", s.handleParticipant)
	mux.HandleFunc("GET /v1/rewards", s.handleRewards)
	mux.HandleFunc("GET /v1/leaderboard", s.handleLeaderboard)
	mux.HandleFunc("GET /v1/tree", s.handleTree)
	mux.HandleFunc("GET /v1/stats", s.handleStats)
	mux.HandleFunc("GET /v1/snapshot", s.handleSnapshot)
	mux.HandleFunc("POST /v1/restore", s.handleRestore)
	mux.HandleFunc("GET /v1/epochs", s.handleEpochs)
	mux.HandleFunc("GET /v1/epochs/{n}", s.handleEpoch)
	mux.HandleFunc("POST /v1/epochs/settle", s.handleSettle)
	mux.HandleFunc("POST /v1/claims", s.handleClaim)
	mux.HandleFunc("GET /v1/claims", s.handleClaims)
	mux.HandleFunc("GET /v1/audit", s.handleAudit)
	mux.HandleFunc("POST /v1/audit/scan", s.handleAuditScan)
	mux.HandleFunc("POST /v1/audit/quarantine", s.handleQuarantine)
	mux.HandleFunc("DELETE /v1/audit/quarantine/{name}", s.handleUnquarantine)
	mux.HandleFunc("GET /v1/healthz", func(w http.ResponseWriter, _ *http.Request) {
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	if s.metrics == nil {
		return mux
	}
	return obs.Middleware(s.metrics, mux)
}

func (s *Server) handleJoin(w http.ResponseWriter, r *http.Request) {
	var req joinRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeJSON(w, http.StatusBadRequest, errorResponse{"malformed JSON: " + err.Error()})
		return
	}
	p, err := s.SubmitJoin(r.Context(), req.Name, req.Sponsor)
	if err != nil {
		writeOpError(w, err)
		return
	}
	writeJSON(w, http.StatusCreated, p)
}

func (s *Server) handleContribute(w http.ResponseWriter, r *http.Request) {
	var req contributeRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeJSON(w, http.StatusBadRequest, errorResponse{"malformed JSON: " + err.Error()})
		return
	}
	p, err := s.SubmitContribute(r.Context(), req.Name, req.Amount)
	if err != nil {
		writeOpError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, p)
}

// writeOpError maps a write-path failure to its HTTP shape: a full
// write queue is admission control (429 with a Retry-After hint), an
// abandoned request or failed journal append is a 503, and anything
// else is the op's own validation error (400).
func writeOpError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, ErrQueueFull):
		w.Header().Set("Retry-After", "1")
		writeJSON(w, http.StatusTooManyRequests, errorResponse{err.Error()})
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded),
		errors.Is(err, errJournalAppend):
		writeJSON(w, http.StatusServiceUnavailable, errorResponse{err.Error()})
	default:
		writeJSON(w, http.StatusBadRequest, errorResponse{err.Error()})
	}
}

func (s *Server) handleParticipant(w http.ResponseWriter, r *http.Request) {
	p, err := s.participant(r.PathValue("name"))
	if err != nil {
		writeJSON(w, http.StatusNotFound, errorResponse{err.Error()})
		return
	}
	writeJSON(w, http.StatusOK, p)
}

// participant returns one participant's view.
func (s *Server) participant(name string) (Participant, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	id, ok := s.state.ByName[name]
	if !ok {
		return Participant{}, fmt.Errorf("unknown participant %q", name)
	}
	return s.viewLocked(id), nil
}

// viewLocked builds one participant's wire view from the maintained
// aggregates: one reward formula plus, while a quarantine is active,
// an ancestor walk. Callers hold at least the read lock.
func (s *Server) viewLocked(id tree.NodeID) Participant {
	if s.maskedLocked(id) {
		return s.viewOfLocked(id, 0, true)
	}
	return s.viewOfLocked(id, s.local.Reward(s.state.Tree, s.agg, id, s.total), false)
}

// viewOfLocked builds one participant's wire view around its served
// reward and quarantine state.
func (s *Server) viewOfLocked(id tree.NodeID, reward float64, quarantined bool) Participant {
	sponsor := ""
	if p := s.state.Tree.Parent(id); p != tree.Root {
		sponsor = s.state.Tree.Label(p)
	}
	c := s.state.Tree.Contribution(id)
	return Participant{
		Name:         s.state.Tree.Label(id),
		Sponsor:      sponsor,
		Contribution: c,
		Reward:       reward,
		Profit:       reward - c,
		Recruits:     s.state.Tree.NumChildren(id),
		Quarantined:  quarantined,
	}
}

// rewardsLocked returns the mechanism's reward table, read from the
// maintained aggregates in one O(n) pass. Callers hold at least the
// read lock.
func (s *Server) rewardsLocked() core.Rewards {
	r := make(core.Rewards, s.state.Tree.Len())
	for id := 1; id < len(r); id++ {
		r[id] = s.local.Reward(s.state.Tree, s.agg, tree.NodeID(id), s.total)
	}
	return r
}

// rewardTotalLocked returns R(T) from the maintained aggregates without
// building the table: it sums in id order with the Kahan steps of
// core.Rewards.Total, and the root's zero entry adds nothing there,
// so the bits are the same. Callers hold at least the read lock.
func (s *Server) rewardTotalLocked() float64 {
	var sum numeric.Accumulator
	for id := 1; id < s.state.Tree.Len(); id++ {
		sum.Add(s.local.Reward(s.state.Tree, s.agg, tree.NodeID(id), s.total))
	}
	return sum.Sum()
}

func (s *Server) handleTree(w http.ResponseWriter, _ *http.Request) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	writeJSON(w, http.StatusOK, s.state.Tree)
}

// statsResponse is the enriched /v1/stats payload: tree shape plus the
// paper-level budget view (R(T), Phi*C(T), and their ratio). Metrics
// are served by /metrics.
type statsResponse struct {
	Mechanism         string      `json:"mechanism"`
	Params            core.Params `json:"params"`
	Tree              tree.Stats  `json:"tree"`
	TotalReward       float64     `json:"total_reward"`
	Budget            float64     `json:"budget"`
	BudgetUtilization float64     `json:"budget_utilization"`
	LastSeq           uint64      `json:"last_seq"`
	// Quarantined counts the quarantine flags currently set. TotalReward
	// above stays the mechanism-level R(T): budget accounting is about
	// what the mechanism allocates, not what payout withholds.
	Quarantined int `json:"quarantined,omitempty"`
}

func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) {
	s.mu.RLock()
	resp := statsResponse{
		Mechanism:   s.mech.Name(),
		Params:      s.mech.Params(),
		Tree:        s.state.Tree.ComputeStats(),
		TotalReward: s.rewardTotalLocked(),
		Budget:      s.mech.Params().Phi * s.state.Tree.Total(),
		LastSeq:     s.state.LastSeq,
		Quarantined: len(s.state.Quarantined),
	}
	s.mu.RUnlock()
	if resp.Budget > 0 {
		resp.BudgetUtilization = resp.TotalReward / resp.Budget
	}
	writeJSON(w, http.StatusOK, resp)
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	// Encoding errors past the header are unrecoverable mid-response;
	// the types marshalled here cannot fail.
	_ = json.NewEncoder(w).Encode(v)
}
