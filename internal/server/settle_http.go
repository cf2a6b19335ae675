package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"

	"incentivetree/internal/journal"
	"incentivetree/internal/obs"
)

// Epoch settlement and the claims ledger. Settle freezes the current
// served reward table (quarantined subtrees already masked to zero)
// into one journal.KindSettle record against the epoch's budget pool;
// Claim pays out one (participant, epoch) share as a journal.KindClaim
// record. Both commit like every other write (commitLocked): applied
// through journal.State.Apply, journaled, and undone if the append
// fails. The ledger state lives in journal.Ledger, so the live path,
// checkpoint recovery, kill -9 replay, and follower replication all
// change it through the same code and re-check the same invariants.

// Settlement error sentinels, matched with errors.Is by the HTTP layer.
var (
	// ErrNothingToSettle reports a settle with no contribution growth
	// and no grantable reward delta; no epoch is created.
	ErrNothingToSettle = errors.New("nothing to settle")
	// ErrEpochNotSettled reports a claim or lookup against an epoch that
	// has not been settled.
	ErrEpochNotSettled = errors.New("epoch not settled")
	// ErrNoShare reports a claim by a participant with no share in the
	// epoch.
	ErrNoShare = errors.New("no share in epoch")
	// ErrAlreadyClaimed reports a duplicate claim — the idempotency
	// conflict, served as 409.
	ErrAlreadyClaimed = errors.New("already claimed")
)

// settleCounters aggregates the settle/claim op counters registered
// when metrics are attached.
type settleCounters struct {
	settles        *obs.Counter
	capped         *obs.Counter
	claims         *obs.Counter
	claimConflicts *obs.Counter
}

func newSettleCounters(reg *obs.Registry, labels ...string) *settleCounters {
	return &settleCounters{
		settles:        reg.Counter("itree_settle_commits_total", "Epoch settle records committed.", labels...),
		capped:         reg.Counter("itree_settle_capped_total", "Settled shares reduced or dropped by pool exhaustion.", labels...),
		claims:         reg.Counter("itree_claims_commits_total", "Claim records committed.", labels...),
		claimConflicts: reg.Counter("itree_claims_conflicts_total", "Claims rejected as duplicates (409).", labels...),
	}
}

// EpochSummary is the wire accounting view of one settled epoch.
type EpochSummary struct {
	Epoch     uint64  `json:"epoch"`
	Pool      float64 `json:"pool"`
	CTotal    float64 `json:"ctotal"`
	Settled   float64 `json:"settled"`
	Claimed   float64 `json:"claimed"`
	Unclaimed float64 `json:"unclaimed"`
	CarryOut  float64 `json:"carry_out"`
	Shares    int     `json:"shares"`
	Claims    int     `json:"claims"`
}

// epochDetail is EpochSummary plus the frozen share table and the
// claimants so far (journal arrival order).
type epochDetail struct {
	EpochSummary
	Rewards []journal.RewardShare `json:"rewards,omitempty"`
	Claimed []string              `json:"claimed,omitempty"`
}

// epochsResponse is the GET /v1/epochs payload.
type epochsResponse struct {
	NextEpoch    uint64         `json:"next_epoch"`
	BudgetFrac   float64        `json:"budget_frac"`
	CSettled     float64        `json:"ctotal_settled"`
	Carry        float64        `json:"carry"`
	SettledTotal float64        `json:"settled_total"`
	ClaimedTotal float64        `json:"claimed_total"`
	Epochs       []EpochSummary `json:"epochs,omitempty"`
}

// ClaimReceipt is the wire acknowledgment of a successful claim.
type ClaimReceipt struct {
	Name   string  `json:"name"`
	Epoch  uint64  `json:"epoch"`
	Amount float64 `json:"amount"`
	Seq    uint64  `json:"seq"`
}

// claimStatus is one epoch's entry in a participant's claims account.
type claimStatus struct {
	Epoch   uint64  `json:"epoch"`
	Amount  float64 `json:"amount"`
	Claimed bool    `json:"claimed"`
}

// claimsAccount is the GET /v1/claims payload: per-participant with
// ?name=, campaign-wide without.
type claimsAccount struct {
	Name      string        `json:"name,omitempty"`
	Settled   float64       `json:"settled"`
	Claimed   float64       `json:"claimed"`
	Unclaimed float64       `json:"unclaimed"`
	Claims    int           `json:"claims"`
	Epochs    []claimStatus `json:"epochs,omitempty"`
}

func (s *Server) epochSummaryLocked(n uint64) EpochSummary {
	se, _ := s.state.Ledger.Epoch(n)
	settled := s.state.Ledger.SettledAmount(n)
	claimed := s.state.Ledger.ClaimedAmount(n)
	return EpochSummary{
		Epoch:     se.Epoch,
		Pool:      se.Pool,
		CTotal:    se.CTotal,
		Settled:   settled,
		Claimed:   claimed,
		Unclaimed: settled - claimed,
		CarryOut:  s.state.Ledger.CarryOut(n),
		Shares:    len(se.Rewards),
		Claims:    len(se.Claimed),
	}
}

// Settle freezes the next epoch from the served reward table
// (journal.Ledger.Settle: the pool accrues the mechanism's Phi per unit
// of contribution growth, plus carry, and no epoch overdraws it) and
// journals it atomically as one settle record. Quarantined subtrees are
// served as zero and therefore excluded; their deltas settle after an
// unquarantine. Returns ErrNothingToSettle (409) when no pool accrual
// and no grant would result.
func (s *Server) Settle() (EpochSummary, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	rewards, _ := s.servedRewardsLocked()
	nodes := s.state.Tree.Nodes()
	served := make([]journal.RewardShare, 0, len(nodes))
	for _, u := range nodes {
		served = append(served, journal.RewardShare{Name: s.state.Tree.Label(u), Amount: rewards.Of(u)})
	}
	ev, capped, ok := s.state.Ledger.Settle(s.mech.Params().Phi, s.state.Tree.Total(), served)
	if !ok {
		return EpochSummary{}, ErrNothingToSettle
	}
	// Ledger.Settle satisfies the ledger invariants by construction, so
	// an error here is a failed append (503) or a bug (500).
	if err := s.commitLocked([]journal.Event{ev})[0]; err != nil {
		return EpochSummary{}, err
	}
	if s.settleObs != nil {
		s.settleObs.settles.Inc()
		s.settleObs.capped.Add(uint64(capped))
	}
	return s.epochSummaryLocked(ev.Epoch), nil
}

// Claim pays out name's share of the given settled epoch (0 means the
// latest). Claims are idempotent per (participant, epoch): a second
// claim fails with ErrAlreadyClaimed (409) and credits nothing. That
// holds across a crash between append and response, too: the claim is
// in the log, so recovery replays it.
func (s *Server) Claim(name string, epoch uint64) (ClaimReceipt, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.state.ByName[name]; !ok {
		return ClaimReceipt{}, fmt.Errorf("%w %q", ErrUnknownParticipant, name)
	}
	if epoch == 0 {
		epoch = uint64(s.state.Ledger.Epochs())
	}
	if epoch == 0 || epoch > uint64(s.state.Ledger.Epochs()) {
		return ClaimReceipt{}, fmt.Errorf("%w: epoch %d", ErrEpochNotSettled, epoch)
	}
	share, ok := s.state.Ledger.Share(epoch, name)
	if !ok {
		return ClaimReceipt{}, fmt.Errorf("%w %d for %q", ErrNoShare, epoch, name)
	}
	if s.state.Ledger.HasClaimed(epoch, name) {
		if s.settleObs != nil {
			s.settleObs.claimConflicts.Inc()
		}
		return ClaimReceipt{}, fmt.Errorf("share of epoch %d %w by %q", epoch, ErrAlreadyClaimed, name)
	}
	ev := journal.Event{Kind: journal.KindClaim, Name: name, Epoch: epoch, Amount: share}
	if err := s.commitLocked([]journal.Event{ev})[0]; err != nil {
		return ClaimReceipt{}, err
	}
	if s.settleObs != nil {
		s.settleObs.claims.Inc()
	}
	return ClaimReceipt{Name: name, Epoch: epoch, Amount: share, Seq: s.state.LastSeq}, nil
}

// LedgerView returns the number of settled epochs plus cumulative
// settled/claimed totals (for gauges and store-level summaries).
func (s *Server) LedgerView() (epochs int, settled, claimed, carry float64) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	epochs = s.state.Ledger.Epochs()
	for n := uint64(1); n <= uint64(epochs); n++ {
		settled += s.state.Ledger.SettledAmount(n)
		claimed += s.state.Ledger.ClaimedAmount(n)
	}
	_, carry = s.state.Ledger.AccrualBasis()
	return epochs, settled, claimed, carry
}

func (s *Server) handleEpochs(w http.ResponseWriter, _ *http.Request) {
	s.mu.RLock()
	n := s.state.Ledger.Epochs()
	resp := epochsResponse{
		NextEpoch:  s.state.Ledger.NextEpoch(),
		BudgetFrac: s.mech.Params().Phi,
	}
	resp.CSettled, resp.Carry = s.state.Ledger.AccrualBasis()
	for i := uint64(1); i <= uint64(n); i++ {
		sum := s.epochSummaryLocked(i)
		resp.SettledTotal += sum.Settled
		resp.ClaimedTotal += sum.Claimed
		resp.Epochs = append(resp.Epochs, sum)
	}
	s.mu.RUnlock()
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleEpoch(w http.ResponseWriter, r *http.Request) {
	n, err := strconv.ParseUint(r.PathValue("n"), 10, 64)
	if err != nil || n == 0 {
		writeJSON(w, http.StatusBadRequest, errorResponse{"epoch must be a positive integer"})
		return
	}
	s.mu.RLock()
	se, ok := s.state.Ledger.Epoch(n)
	var detail epochDetail
	if ok {
		detail = epochDetail{EpochSummary: s.epochSummaryLocked(n), Rewards: se.Rewards, Claimed: se.Claimed}
	}
	s.mu.RUnlock()
	if !ok {
		writeJSON(w, http.StatusNotFound, errorResponse{fmt.Sprintf("epoch %d not settled", n)})
		return
	}
	writeJSON(w, http.StatusOK, detail)
}

func (s *Server) handleSettle(w http.ResponseWriter, _ *http.Request) {
	sum, err := s.Settle()
	if err != nil {
		writeSettleError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, sum)
}

type claimRequest struct {
	Name  string `json:"name"`
	Epoch uint64 `json:"epoch"`
}

func (s *Server) handleClaim(w http.ResponseWriter, r *http.Request) {
	var req claimRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeJSON(w, http.StatusBadRequest, errorResponse{"malformed JSON: " + err.Error()})
		return
	}
	receipt, err := s.Claim(req.Name, req.Epoch)
	if err != nil {
		writeSettleError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, receipt)
}

func (s *Server) handleClaims(w http.ResponseWriter, r *http.Request) {
	name := r.URL.Query().Get("name")
	s.mu.RLock()
	defer s.mu.RUnlock()
	if name == "" {
		acct := claimsAccount{}
		for n := uint64(1); n <= uint64(s.state.Ledger.Epochs()); n++ {
			acct.Settled += s.state.Ledger.SettledAmount(n)
			acct.Claimed += s.state.Ledger.ClaimedAmount(n)
			se, _ := s.state.Ledger.Epoch(n)
			acct.Claims += len(se.Claimed)
		}
		acct.Unclaimed = acct.Settled - acct.Claimed
		writeJSON(w, http.StatusOK, acct)
		return
	}
	if _, ok := s.state.ByName[name]; !ok {
		writeJSON(w, http.StatusNotFound, errorResponse{fmt.Sprintf("unknown participant %q", name)})
		return
	}
	acct := claimsAccount{
		Name:    name,
		Settled: s.state.Ledger.SettledOf(name),
		Claimed: s.state.Ledger.ClaimedOf(name),
	}
	acct.Unclaimed = acct.Settled - acct.Claimed
	for n := uint64(1); n <= uint64(s.state.Ledger.Epochs()); n++ {
		amt, ok := s.state.Ledger.Share(n, name)
		if !ok {
			continue
		}
		claimed := s.state.Ledger.HasClaimed(n, name)
		if claimed {
			acct.Claims++
		}
		acct.Epochs = append(acct.Epochs, claimStatus{Epoch: n, Amount: amt, Claimed: claimed})
	}
	writeJSON(w, http.StatusOK, acct)
}

// writeSettleError maps settlement failures to HTTP: unknown names and
// unsettled epochs 404, idle settles and duplicate claims 409, journal
// append failures 503 (as on the batch write path), anything else 500.
func writeSettleError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, ErrUnknownParticipant), errors.Is(err, ErrEpochNotSettled), errors.Is(err, ErrNoShare):
		writeJSON(w, http.StatusNotFound, errorResponse{err.Error()})
	case errors.Is(err, ErrNothingToSettle), errors.Is(err, ErrAlreadyClaimed):
		writeJSON(w, http.StatusConflict, errorResponse{err.Error()})
	case errors.Is(err, errJournalAppend):
		writeJSON(w, http.StatusServiceUnavailable, errorResponse{err.Error()})
	default:
		writeJSON(w, http.StatusInternalServerError, errorResponse{err.Error()})
	}
}
