package server

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"incentivetree/internal/journal"
)

// statusFixture is a journaled campaign with one settled epoch: ada
// sponsors bo and cy, bo sponsors dee; cy is quarantined, and bo has
// already claimed its share of epoch 1.
func statusFixture(t *testing.T) http.Handler {
	t.Helper()
	var log bytes.Buffer
	s := New(suiteMechanism(t, "geometric"), WithJournal(journal.NewWriter(&log, 1)))
	for _, step := range []struct {
		name, sponsor string
		amount        float64
	}{{"ada", "", 2}, {"bo", "ada", 3}, {"cy", "ada", 1}, {"dee", "bo", 4}} {
		if err := s.Join(step.name, step.sponsor); err != nil {
			t.Fatal(err)
		}
		if err := s.Contribute(step.name, step.amount); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Quarantine("cy"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Settle(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Claim("bo", 1); err != nil {
		t.Fatal(err)
	}
	return s.Handler()
}

// TestWriteRouteStatuses pins the status every write route answers for
// each way a write can be wrong: empty, blank and unknown names,
// duplicates, non-positive amounts, unsettled epochs and double
// claims. Each row runs against a fresh fixture.
func TestWriteRouteStatuses(t *testing.T) {
	rows := []struct {
		name, method, path, body string
		status                   int
	}{
		{"join/ok", "POST", "/v1/join", `{"name":"eve","sponsor":"dee"}`, http.StatusCreated},
		{"join/empty name", "POST", "/v1/join", `{"name":""}`, http.StatusBadRequest},
		{"join/blank name", "POST", "/v1/join", `{"name":"   "}`, http.StatusBadRequest},
		{"join/unknown sponsor", "POST", "/v1/join", `{"name":"eve","sponsor":"ghost"}`, http.StatusBadRequest},
		{"join/empty sponsor name", "POST", "/v1/join", `{"name":"eve","sponsor":""}`, http.StatusCreated},
		{"join/duplicate", "POST", "/v1/join", `{"name":"ada"}`, http.StatusBadRequest},
		{"join/duplicate after trim", "POST", "/v1/join", `{"name":" ada "}`, http.StatusBadRequest},

		{"contribute/ok", "POST", "/v1/contribute", `{"name":"ada","amount":1.5}`, http.StatusOK},
		{"contribute/empty name", "POST", "/v1/contribute", `{"name":"","amount":1}`, http.StatusBadRequest},
		{"contribute/blank name", "POST", "/v1/contribute", `{"name":"   ","amount":1}`, http.StatusBadRequest},
		{"contribute/unknown name", "POST", "/v1/contribute", `{"name":"ghost","amount":1}`, http.StatusBadRequest},
		{"contribute/zero amount", "POST", "/v1/contribute", `{"name":"ada","amount":0}`, http.StatusBadRequest},
		{"contribute/negative amount", "POST", "/v1/contribute", `{"name":"ada","amount":-1}`, http.StatusBadRequest},
		{"contribute/empty name, negative amount", "POST", "/v1/contribute", `{"name":"","amount":-1}`, http.StatusBadRequest},
		{"contribute/quarantined", "POST", "/v1/contribute", `{"name":"cy","amount":1}`, http.StatusOK},

		{"quarantine/ok", "POST", "/v1/audit/quarantine", `{"name":"dee"}`, http.StatusOK},
		{"quarantine/empty name", "POST", "/v1/audit/quarantine", `{"name":""}`, http.StatusNotFound},
		{"quarantine/blank name", "POST", "/v1/audit/quarantine", `{"name":"   "}`, http.StatusNotFound},
		{"quarantine/unknown name", "POST", "/v1/audit/quarantine", `{"name":"ghost"}`, http.StatusNotFound},
		{"quarantine/duplicate", "POST", "/v1/audit/quarantine", `{"name":"cy"}`, http.StatusConflict},

		{"unquarantine/ok", "DELETE", "/v1/audit/quarantine/cy", "", http.StatusOK},
		{"unquarantine/empty name", "DELETE", "/v1/audit/quarantine/", "", http.StatusNotFound},
		{"unquarantine/blank name", "DELETE", "/v1/audit/quarantine/%20%20", "", http.StatusNotFound},
		{"unquarantine/unknown name", "DELETE", "/v1/audit/quarantine/ghost", "", http.StatusNotFound},
		{"unquarantine/not quarantined", "DELETE", "/v1/audit/quarantine/ada", "", http.StatusConflict},

		{"settle/nothing to settle", "POST", "/v1/epochs/settle", "", http.StatusConflict},

		{"claim/ok", "POST", "/v1/claims", `{"name":"ada","epoch":1}`, http.StatusOK},
		{"claim/latest", "POST", "/v1/claims", `{"name":"ada","epoch":0}`, http.StatusOK},
		{"claim/empty name", "POST", "/v1/claims", `{"name":"","epoch":1}`, http.StatusNotFound},
		{"claim/blank name", "POST", "/v1/claims", `{"name":"   ","epoch":1}`, http.StatusNotFound},
		{"claim/unknown name", "POST", "/v1/claims", `{"name":"ghost","epoch":1}`, http.StatusNotFound},
		{"claim/unsettled epoch", "POST", "/v1/claims", `{"name":"ada","epoch":2}`, http.StatusNotFound},
		{"claim/no share", "POST", "/v1/claims", `{"name":"cy","epoch":1}`, http.StatusNotFound},
		{"claim/double claim", "POST", "/v1/claims", `{"name":"bo","epoch":1}`, http.StatusConflict},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			h := statusFixture(t)
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(row.method, row.path, strings.NewReader(row.body)))
			if rec.Code != row.status {
				t.Fatalf("%s %s %s = %d %s, want %d", row.method, row.path, row.body, rec.Code, rec.Body, row.status)
			}
		})
	}
	// Settling twice in a row with growth in between is fine; a third
	// settle with nothing new is the duplicate.
	t.Run("settle/ok then duplicate", func(t *testing.T) {
		h := statusFixture(t)
		for _, step := range []struct {
			path, body string
			status     int
		}{
			{"/v1/contribute", `{"name":"dee","amount":2}`, http.StatusOK},
			{"/v1/epochs/settle", "", http.StatusOK},
			{"/v1/epochs/settle", "", http.StatusConflict},
		} {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest("POST", step.path, strings.NewReader(step.body)))
			if rec.Code != step.status {
				t.Fatalf("POST %s = %d %s, want %d", step.path, rec.Code, rec.Body, step.status)
			}
		}
	})
}

// TestOversizedRecordRefused: a write whose journal record would exceed
// the decoder's frame bound is refused like any invalid write, its
// batch-mates commit, and the log still recovers to the served state.
func TestOversizedRecordRefused(t *testing.T) {
	var log bytes.Buffer
	s := New(suiteMechanism(t, "geometric"), WithJournal(journal.NewWriter(&log, 1)))
	huge := strings.Repeat("x", 1<<26)
	res := s.applyBatch([]journal.Event{
		{Kind: journal.KindJoin, Name: "ada"},
		{Kind: journal.KindJoin, Name: huge},
		{Kind: journal.KindJoin, Name: "bo", Sponsor: "ada"},
	})
	if res[0].err != nil || res[2].err != nil {
		t.Fatalf("batch-mates refused: %v, %v", res[0].err, res[2].err)
	}
	if res[1].err == nil {
		t.Fatal("a join whose record exceeds the frame bound was acknowledged")
	}
	rec := httptest.NewRecorder()
	writeOpError(rec, res[1].err)
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("oversized join answers %d, want 400", rec.Code)
	}
	events, err := journal.Read(bytes.NewReader(log.Bytes()))
	if err != nil {
		t.Fatalf("the journal no longer reads back: %v", err)
	}
	recovered := New(suiteMechanism(t, "geometric"))
	if err := Recover(recovered, nil, events); err != nil {
		t.Fatal(err)
	}
	if live, back := rewardsBody(t, s), rewardsBody(t, recovered); !bytes.Equal(live, back) {
		t.Fatalf("recovered rewards differ:\n live %s\n back %s", live, back)
	}
}

// rewardsBody returns the /v1/rewards bytes s serves.
func rewardsBody(t *testing.T, s *Server) []byte {
	t.Helper()
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/v1/rewards", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("rewards = %d %s", rec.Code, rec.Body)
	}
	return rec.Body.Bytes()
}
