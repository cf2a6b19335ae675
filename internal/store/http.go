package store

import (
	"encoding/json"
	"net/http"
	"strings"

	"incentivetree/internal/core"
)

// Handler returns the store's HTTP API:
//
//	POST   /v1/campaigns                  {"id","mechanism","phi","fair"} -> create
//	GET    /v1/campaigns                  -> campaign summaries
//	GET    /v1/campaigns/{id}             -> one summary
//	DELETE /v1/campaigns/{id}             -> delete campaign and its data
//	POST   /v1/campaigns/{id}/checkpoint  -> force a checkpoint now
//	GET    /v1/campaigns/{id}/replica/... -> replication endpoints
//	                                         (snapshot, journal stream;
//	                                         see internal/replica)
//	*      /v1/campaigns/{id}/...         -> the campaign's server API
//	                                         (join, contribute, rewards, ...)
//	*      /v1/...                        -> legacy aliases served by the
//	                                         "default" campaign
//
// Campaign sub-routes are the exact internal/server API with the
// "/campaigns/{id}" segment spliced in, so existing single-campaign
// clients keep working unchanged against the legacy aliases.
func (st *Store) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/campaigns", st.handleCreate)
	mux.HandleFunc("GET /v1/campaigns", st.handleList)
	mux.HandleFunc("GET /v1/campaigns/{id}", st.handleInfo)
	mux.HandleFunc("DELETE /v1/campaigns/{id}", st.handleDelete)
	mux.HandleFunc("POST /v1/campaigns/{id}/checkpoint", st.handleCheckpoint)
	mux.HandleFunc("GET /v1/campaigns/{id}/replica/snapshot", st.handleReplicaSnapshot)
	mux.HandleFunc("GET /v1/campaigns/{id}/replica/journal", st.handleReplicaJournal)
	mux.HandleFunc("/v1/campaigns/{id}/{rest...}", st.handleCampaignRoute)
	mux.HandleFunc("/v1/", st.handleLegacy)
	return mux
}

// createRequest is the wire format of POST /v1/campaigns. Requests
// that still carry the retired "incremental" switch decode; the field
// is ignored.
type createRequest struct {
	ID        string  `json:"id"`
	Mechanism string  `json:"mechanism,omitempty"`
	Phi       float64 `json:"phi,omitempty"`
	Fair      float64 `json:"fair,omitempty"`
}

// campaignInfo is the wire format of a campaign summary.
type campaignInfo struct {
	ID           string  `json:"id"`
	Mechanism    string  `json:"mechanism"`
	Phi          float64 `json:"phi"`
	Fair         float64 `json:"fair"`
	Participants int     `json:"participants"`
	Contribution float64 `json:"total_contribution"`
	LastSeq      uint64  `json:"last_seq"`
}

type errorResponse struct {
	Error string `json:"error"`
}

func (st *Store) info(c *Campaign) campaignInfo {
	participants, total, lastSeq := c.srv.Summary()
	return campaignInfo{
		ID:           c.Meta.ID,
		Mechanism:    c.Meta.Mechanism,
		Phi:          c.Meta.Params.Phi,
		Fair:         c.Meta.Params.FairShare,
		Participants: participants,
		Contribution: total,
		LastSeq:      lastSeq,
	}
}

func (st *Store) handleCreate(w http.ResponseWriter, r *http.Request) {
	var req createRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeJSON(w, http.StatusBadRequest, errorResponse{"malformed JSON: " + err.Error()})
		return
	}
	params := core.Params{Phi: req.Phi, FairShare: req.Fair}
	if params == (core.Params{}) {
		params = st.cfg.DefaultParams
	}
	c, err := st.Create(Meta{
		ID:        req.ID,
		Mechanism: req.Mechanism,
		Params:    params,
	})
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errorResponse{err.Error()})
		return
	}
	writeJSON(w, http.StatusCreated, st.info(c))
}

func (st *Store) handleList(w http.ResponseWriter, _ *http.Request) {
	out := []campaignInfo{}
	for _, c := range st.List() {
		out = append(out, st.info(c))
	}
	writeJSON(w, http.StatusOK, out)
}

func (st *Store) handleInfo(w http.ResponseWriter, r *http.Request) {
	c, ok := st.Get(r.PathValue("id"))
	if !ok {
		writeJSON(w, http.StatusNotFound, errorResponse{"unknown campaign " + r.PathValue("id")})
		return
	}
	writeJSON(w, http.StatusOK, st.info(c))
}

func (st *Store) handleDelete(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if err := st.Delete(id); err != nil {
		status := http.StatusBadRequest
		if _, ok := st.Get(id); !ok && id != DefaultID {
			status = http.StatusNotFound
		}
		writeJSON(w, status, errorResponse{err.Error()})
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"deleted": id})
}

func (st *Store) handleCheckpoint(w http.ResponseWriter, r *http.Request) {
	c, ok := st.Get(r.PathValue("id"))
	if !ok {
		writeJSON(w, http.StatusNotFound, errorResponse{"unknown campaign " + r.PathValue("id")})
		return
	}
	reclaimed, err := st.Checkpoint(c)
	if err != nil {
		writeJSON(w, http.StatusInternalServerError, errorResponse{err.Error()})
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"campaign":         c.Meta.ID,
		"last_seq":         c.srv.LastSeq(),
		"reclaimed_bytes":  reclaimed,
		"journal_bytes":    journalBytes(c),
		"checkpointed_seq": c.checkpointedSeqHint(),
	})
}

// checkpointedSeqHint reads the checkpointed sequence for reporting.
func (c *Campaign) checkpointedSeqHint() uint64 {
	c.cpMu.Lock()
	defer c.cpMu.Unlock()
	return c.checkpointedSeq
}

func journalBytes(c *Campaign) int64 {
	if c.fw == nil {
		return 0
	}
	return c.fw.Size()
}

// handleCampaignRoute dispatches /v1/campaigns/{id}/<rest> to the
// campaign's own server handler as /v1/<rest>. After a successful write
// it checks the journal size trigger.
func (st *Store) handleCampaignRoute(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	c, ok := st.Get(id)
	if !ok {
		writeJSON(w, http.StatusNotFound, errorResponse{"unknown campaign " + id})
		return
	}
	rest := strings.TrimPrefix(r.URL.Path, "/v1/campaigns/"+id)
	r2 := r.Clone(r.Context())
	r2.URL.Path = "/v1" + rest
	r2.URL.RawPath = ""
	// The inner mux re-resolves its own pattern; clear the outer one so
	// metrics label by the inner route ("POST /v1/join"), which keeps
	// cardinality independent of campaign count.
	r2.Pattern = ""
	c.handler.ServeHTTP(w, r2)
	if r.Method == http.MethodPost {
		st.maybeKick(c)
	}
}

// handleLegacy serves the pre-multi-tenant /v1/* surface from the
// default campaign, so existing clients keep working.
func (st *Store) handleLegacy(w http.ResponseWriter, r *http.Request) {
	c, ok := st.Get(DefaultID)
	if !ok {
		writeJSON(w, http.StatusNotFound, errorResponse{"no default campaign"})
		return
	}
	c.handler.ServeHTTP(w, r)
	if r.Method == http.MethodPost {
		st.maybeKick(c)
	}
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}
