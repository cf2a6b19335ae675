package server

import (
	"encoding/json"
	"errors"
	"net/http"

	"incentivetree/internal/audit"
)

// SetAuditor mounts a background auditor on the audit endpoints. The
// store calls this when the audit service is enabled; a server without
// an auditor still serves GET /v1/audit (quarantine status only) and
// the quarantine write endpoints, which act on the server's own
// journaled quarantine state.
func (s *Server) SetAuditor(a *audit.Auditor) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.auditor = a
}

func (s *Server) getAuditor() *audit.Auditor {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.auditor
}

// auditResponse is the wire format of GET /v1/audit.
type auditResponse struct {
	// Enabled reports whether a background auditor is attached; without
	// one only the quarantine fields are populated.
	Enabled bool `json:"enabled"`
	// Quarantined lists the quarantined participant names, sorted.
	Quarantined []string `json:"quarantined"`
	// Report is the auditor's scored findings (enabled only).
	Report *audit.Report `json:"report,omitempty"`
}

func (s *Server) handleAudit(w http.ResponseWriter, _ *http.Request) {
	resp := auditResponse{Quarantined: s.QuarantinedNames()}
	if resp.Quarantined == nil {
		resp.Quarantined = []string{}
	}
	if a := s.getAuditor(); a != nil {
		resp.Enabled = true
		rep := a.Report()
		resp.Report = &rep
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleAuditScan(w http.ResponseWriter, _ *http.Request) {
	a := s.getAuditor()
	if a == nil {
		writeJSON(w, http.StatusConflict, errorResponse{"audit service disabled"})
		return
	}
	st := a.Scan()
	writeJSON(w, http.StatusOK, map[string]any{
		"skipped":     st.Skipped,
		"candidates":  st.Candidates,
		"detected":    st.Detected,
		"flagged":     st.Flagged,
		"quarantined": st.Quarantined,
	})
}

// quarantineRequest is the wire format of POST /v1/audit/quarantine.
type quarantineRequest struct {
	Name string `json:"name"`
}

func (s *Server) handleQuarantine(w http.ResponseWriter, r *http.Request) {
	var req quarantineRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeJSON(w, http.StatusBadRequest, errorResponse{"malformed JSON: " + err.Error()})
		return
	}
	if err := s.Quarantine(req.Name); err != nil {
		writeQuarantineError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"name": req.Name, "quarantined": true})
}

func (s *Server) handleUnquarantine(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	if err := s.Unquarantine(name); err != nil {
		writeQuarantineError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"name": name, "quarantined": false})
}

// writeQuarantineError maps quarantine transitions to HTTP: unknown
// names 404, redundant transitions 409, journal append failures 503 (as
// on the batch write path), anything else 500.
func writeQuarantineError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, ErrUnknownParticipant):
		writeJSON(w, http.StatusNotFound, errorResponse{err.Error()})
	case errors.Is(err, ErrAlreadyQuarantined), errors.Is(err, ErrNotQuarantined):
		writeJSON(w, http.StatusConflict, errorResponse{err.Error()})
	case errors.Is(err, errJournalAppend):
		writeJSON(w, http.StatusServiceUnavailable, errorResponse{err.Error()})
	default:
		writeJSON(w, http.StatusInternalServerError, errorResponse{err.Error()})
	}
}
