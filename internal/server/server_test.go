package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"

	"incentivetree/internal/core"
	"incentivetree/internal/geometric"
	"incentivetree/internal/obs"
)

func newTestServer(t *testing.T) (*Server, *httptest.Server) {
	t.Helper()
	m, err := geometric.Default(core.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	s := New(m)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func postJSON(t *testing.T, url string, body any) *http.Response {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	return resp
}

func getJSON(t *testing.T, url string, out any) *http.Response {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decode: %v", err)
		}
	}
	return resp
}

func TestHealthz(t *testing.T) {
	_, ts := newTestServer(t)
	resp := getJSON(t, ts.URL+"/v1/healthz", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
}

func TestJoinContributeAndQuery(t *testing.T) {
	_, ts := newTestServer(t)

	resp := postJSON(t, ts.URL+"/v1/join", map[string]string{"name": "alice"})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("join status = %d", resp.StatusCode)
	}
	resp = postJSON(t, ts.URL+"/v1/join", map[string]string{"name": "bob", "sponsor": "alice"})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("sponsored join status = %d", resp.StatusCode)
	}

	resp = postJSON(t, ts.URL+"/v1/contribute", map[string]any{"name": "bob", "amount": 4.0})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("contribute status = %d", resp.StatusCode)
	}
	var bob Participant
	if err := json.NewDecoder(resp.Body).Decode(&bob); err != nil {
		t.Fatal(err)
	}
	if bob.Contribution != 4 || bob.Sponsor != "alice" {
		t.Fatalf("bob = %+v", bob)
	}
	if bob.Reward <= 0 {
		t.Fatalf("bob reward = %v", bob.Reward)
	}

	var alice Participant
	getJSON(t, ts.URL+"/v1/participants/alice", &alice)
	if alice.Recruits != 1 {
		t.Fatalf("alice = %+v", alice)
	}
	// Alice earns from bob's contribution via bubble-up.
	if alice.Reward <= 0 {
		t.Fatalf("alice reward = %v", alice.Reward)
	}
}

func TestJoinErrors(t *testing.T) {
	_, ts := newTestServer(t)
	tests := []struct {
		name string
		body any
		want int
	}{
		{"empty name", map[string]string{"name": ""}, http.StatusBadRequest},
		{"unknown sponsor", map[string]string{"name": "x", "sponsor": "ghost"}, http.StatusBadRequest},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			if resp := postJSON(t, ts.URL+"/v1/join", tc.body); resp.StatusCode != tc.want {
				t.Fatalf("status = %d, want %d", resp.StatusCode, tc.want)
			}
		})
	}
	// Duplicate join.
	postJSON(t, ts.URL+"/v1/join", map[string]string{"name": "dup"})
	if resp := postJSON(t, ts.URL+"/v1/join", map[string]string{"name": "dup"}); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("duplicate join status = %d", resp.StatusCode)
	}
	// Malformed JSON.
	resp, err := http.Post(ts.URL+"/v1/join", "application/json", bytes.NewReader([]byte("{")))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed join status = %d", resp.StatusCode)
	}
}

func TestContributeErrors(t *testing.T) {
	_, ts := newTestServer(t)
	postJSON(t, ts.URL+"/v1/join", map[string]string{"name": "alice"})
	tests := []struct {
		name string
		body any
	}{
		{"unknown participant", map[string]any{"name": "ghost", "amount": 1.0}},
		{"zero amount", map[string]any{"name": "alice", "amount": 0.0}},
		{"negative amount", map[string]any{"name": "alice", "amount": -2.0}},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			if resp := postJSON(t, ts.URL+"/v1/contribute", tc.body); resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("status = %d", resp.StatusCode)
			}
		})
	}
}

func TestParticipantNotFound(t *testing.T) {
	_, ts := newTestServer(t)
	if resp := getJSON(t, ts.URL+"/v1/participants/nobody", nil); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("status = %d", resp.StatusCode)
	}
}

func TestRewardsEndpoint(t *testing.T) {
	s, ts := newTestServer(t)
	if err := s.Join("alice", ""); err != nil {
		t.Fatal(err)
	}
	if err := s.Join("bob", "alice"); err != nil {
		t.Fatal(err)
	}
	if err := s.Contribute("alice", 2); err != nil {
		t.Fatal(err)
	}
	if err := s.Contribute("bob", 3); err != nil {
		t.Fatal(err)
	}
	var resp rewardsResponse
	getJSON(t, ts.URL+"/v1/rewards", &resp)
	if resp.Total != 5 {
		t.Fatalf("total = %v", resp.Total)
	}
	if len(resp.Participants) != 2 {
		t.Fatalf("participants = %d", len(resp.Participants))
	}
	if resp.TotalReward > resp.Budget+1e-9 {
		t.Fatalf("reward %v over budget %v", resp.TotalReward, resp.Budget)
	}
	if resp.Mechanism == "" {
		t.Fatal("mechanism name missing")
	}
}

func TestTreeAndStatsEndpoints(t *testing.T) {
	s, ts := newTestServer(t)
	if err := s.Join("alice", ""); err != nil {
		t.Fatal(err)
	}
	if err := s.Contribute("alice", 1); err != nil {
		t.Fatal(err)
	}
	var treeResp struct {
		Participants []json.RawMessage `json:"participants"`
	}
	getJSON(t, ts.URL+"/v1/tree", &treeResp)
	if len(treeResp.Participants) != 1 {
		t.Fatalf("tree participants = %d", len(treeResp.Participants))
	}
	var stats statsResponse
	getJSON(t, ts.URL+"/v1/stats", &stats)
	if stats.Tree.Participants != 1 || stats.Tree.Total != 1 {
		t.Fatalf("stats tree = %+v", stats.Tree)
	}
	if stats.Mechanism == "" || stats.Params.Phi != 0.5 {
		t.Fatalf("stats = %+v", stats)
	}
	if stats.Budget != 0.5 {
		t.Fatalf("budget = %v, want Phi*C(T) = 0.5", stats.Budget)
	}
	if stats.BudgetUtilization < 0 || stats.BudgetUtilization > 1+1e-9 {
		t.Fatalf("budget utilization = %v, want within [0, 1]", stats.BudgetUtilization)
	}
	if stats.TotalReward <= 0 {
		t.Fatalf("total reward = %v, want > 0", stats.TotalReward)
	}
}

// newMeteredServer builds a server with an isolated metrics registry.
func newMeteredServer(t *testing.T) (*Server, *httptest.Server, *obs.Registry) {
	t.Helper()
	m, err := geometric.Default(core.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	s := New(m, WithMetricsLabels(reg))
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts, reg
}

// TestErrorPathsOverHTTP exercises every client-error path end to end
// and, through the middleware, checks each is recorded under the right
// route and status class.
func TestErrorPathsOverHTTP(t *testing.T) {
	_, ts, reg := newMeteredServer(t)

	// Bad JSON bodies on both POST routes.
	for _, route := range []string{"/v1/join", "/v1/contribute"} {
		resp, err := http.Post(ts.URL+route, "application/json", bytes.NewReader([]byte("{nope")))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s bad JSON status = %d", route, resp.StatusCode)
		}
	}
	// Unknown sponsor.
	if resp := postJSON(t, ts.URL+"/v1/join", map[string]string{"name": "a", "sponsor": "ghost"}); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown sponsor status = %d", resp.StatusCode)
	}
	// Contribute before join.
	if resp := postJSON(t, ts.URL+"/v1/contribute", map[string]any{"name": "a", "amount": 1.0}); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("contribute-before-join status = %d", resp.StatusCode)
	}
	// Duplicate join.
	if resp := postJSON(t, ts.URL+"/v1/join", map[string]string{"name": "a"}); resp.StatusCode != http.StatusCreated {
		t.Fatalf("first join status = %d", resp.StatusCode)
	}
	if resp := postJSON(t, ts.URL+"/v1/join", map[string]string{"name": "a"}); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("duplicate join status = %d", resp.StatusCode)
	}

	// The middleware saw it all: 4 join requests (3 bad, 1 created), 2
	// contribute requests (both bad).
	join4xx := reg.Counter("itree_http_requests_total", "", "route", "POST /v1/join", "code", "4xx").Value()
	join2xx := reg.Counter("itree_http_requests_total", "", "route", "POST /v1/join", "code", "2xx").Value()
	contrib4xx := reg.Counter("itree_http_requests_total", "", "route", "POST /v1/contribute", "code", "4xx").Value()
	if join4xx != 3 || join2xx != 1 || contrib4xx != 2 {
		t.Fatalf("recorded join4xx=%d join2xx=%d contrib4xx=%d, want 3/1/2", join4xx, join2xx, contrib4xx)
	}
	// Latency histograms observed every request on the route.
	h := reg.Histogram("itree_http_request_duration_seconds", "", nil, "route", "POST /v1/join")
	if h.Count() != 4 {
		t.Fatalf("join latency observations = %d, want 4", h.Count())
	}
	if h.Sum() <= 0 {
		t.Fatalf("join latency sum = %v, want > 0", h.Sum())
	}
}

// TestDomainGauges checks the scrape-time gauges track live state,
// including the paper's budget utilization R(T)/(Phi*C(T)).
func TestDomainGauges(t *testing.T) {
	s, ts, reg := newMeteredServer(t)
	if err := s.Join("alice", ""); err != nil {
		t.Fatal(err)
	}
	if err := s.Join("bob", "alice"); err != nil {
		t.Fatal(err)
	}
	if err := s.Contribute("bob", 4); err != nil {
		t.Fatal(err)
	}

	rec := httptest.NewRecorder()
	reg.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	body := rec.Body.String()
	for _, want := range []string{
		"itree_participants 2",
		"itree_tree_depth_max 2",
		"itree_contribution_total 4",
		"itree_journal_last_seq 3",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("exposition missing %q:\n%s", want, body)
		}
	}
	// Utilization is in (0, 1] for a funded geometric tree.
	var snap statsResponse
	getJSON(t, ts.URL+"/v1/stats", &snap)
	if snap.BudgetUtilization <= 0 || snap.BudgetUtilization > 1+1e-9 {
		t.Fatalf("budget utilization = %v", snap.BudgetUtilization)
	}
	// The scraped gauge agrees with the stats view.
	found := false
	for _, line := range strings.Split(body, "\n") {
		if v, ok := strings.CutPrefix(line, "itree_budget_utilization "); ok {
			found = true
			if g, err := strconv.ParseFloat(v, 64); err != nil || g != snap.BudgetUtilization {
				t.Fatalf("gauge %q != stats utilization %v", v, snap.BudgetUtilization)
			}
		}
	}
	if !found {
		t.Fatal("exposition missing itree_budget_utilization")
	}
}

// TestEmptyDeploymentGauges: utilization must report 0, not NaN, when
// C(T) = 0.
func TestEmptyDeploymentGauges(t *testing.T) {
	_, ts, _ := newMeteredServer(t)
	var snap statsResponse
	getJSON(t, ts.URL+"/v1/stats", &snap)
	if snap.BudgetUtilization != 0 {
		t.Fatalf("empty utilization = %v, want 0", snap.BudgetUtilization)
	}
}

func TestConcurrentJoinsAndReads(t *testing.T) {
	s, ts := newTestServer(t)
	if err := s.Join("seed", ""); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 20; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			name := fmt.Sprintf("user%d", i)
			if err := s.Join(name, "seed"); err != nil {
				t.Errorf("join %s: %v", name, err)
				return
			}
			if err := s.Contribute(name, 1); err != nil {
				t.Errorf("contribute %s: %v", name, err)
			}
			getJSON(t, ts.URL+"/v1/rewards", nil)
		}(i)
	}
	wg.Wait()
	var resp rewardsResponse
	getJSON(t, ts.URL+"/v1/rewards", &resp)
	if len(resp.Participants) != 21 {
		t.Fatalf("participants = %d, want 21", len(resp.Participants))
	}
	if resp.Total != 20 {
		t.Fatalf("total = %v, want 20", resp.Total)
	}
}
