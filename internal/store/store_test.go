package store

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"incentivetree/internal/core"
	"incentivetree/internal/emek"
	"incentivetree/internal/experiments"
	"incentivetree/internal/obs"
)

// testConfig builds a Config with manual checkpointing, suitable for
// deterministic tests.
func testConfig(dir string) Config {
	return Config{
		DataDir:            dir,
		CheckpointInterval: -1, // checkpoints only when tests ask
		CheckpointBytes:    -1,
		NewMechanism: func(name string, p core.Params) (core.Mechanism, error) {
			return experiments.ByName(p, name)
		},
	}
}

func openStore(t *testing.T, cfg Config) *Store {
	t.Helper()
	st, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	return st
}

// do sends one request through the store handler and decodes the JSON
// response into out (skipped when out is nil).
func do(t *testing.T, h http.Handler, method, path, body string, out any) int {
	t.Helper()
	var r *http.Request
	if body == "" {
		r = httptest.NewRequest(method, path, nil)
	} else {
		r = httptest.NewRequest(method, path, strings.NewReader(body))
	}
	w := httptest.NewRecorder()
	h.ServeHTTP(w, r)
	if out != nil {
		if err := json.Unmarshal(w.Body.Bytes(), out); err != nil {
			t.Fatalf("%s %s: bad JSON %q: %v", method, path, w.Body.String(), err)
		}
	}
	return w.Code
}

func TestValidateID(t *testing.T) {
	for _, ok := range []string{"a", "default", "camp-1", "x_y", "0z", strings.Repeat("a", 64)} {
		if err := ValidateID(ok); err != nil {
			t.Errorf("ValidateID(%q) = %v", ok, err)
		}
	}
	for _, bad := range []string{"", "Big", "-lead", "_lead", "has space", "a/b", "a.b", strings.Repeat("a", 65)} {
		if err := ValidateID(bad); err == nil {
			t.Errorf("ValidateID(%q) should fail", bad)
		}
	}
}

func TestStoreLifecycleHTTP(t *testing.T) {
	st := openStore(t, testConfig(t.TempDir()))
	h := st.Handler()

	// The default campaign exists from the start.
	var infos []campaignInfo
	if code := do(t, h, "GET", "/v1/campaigns", "", &infos); code != http.StatusOK {
		t.Fatalf("list = %d", code)
	}
	if len(infos) != 1 || infos[0].ID != DefaultID {
		t.Fatalf("initial campaigns = %+v", infos)
	}

	// Create a second campaign with its own mechanism.
	var created campaignInfo
	if code := do(t, h, "POST", "/v1/campaigns",
		`{"id":"acme","mechanism":"geometric","phi":0.6,"fair":0.05}`, &created); code != http.StatusCreated {
		t.Fatalf("create = %d", code)
	}
	if created.ID != "acme" || created.Mechanism != "geometric" || created.Phi != 0.6 {
		t.Fatalf("created = %+v", created)
	}
	if _, err := os.Stat(filepath.Join(st.cfg.DataDir, "campaigns", "acme", "meta.json")); err != nil {
		t.Fatalf("meta.json missing: %v", err)
	}

	// Duplicates and bad ids are rejected.
	if code := do(t, h, "POST", "/v1/campaigns", `{"id":"acme"}`, nil); code != http.StatusBadRequest {
		t.Fatalf("duplicate create = %d", code)
	}
	if code := do(t, h, "POST", "/v1/campaigns", `{"id":"Not Valid"}`, nil); code != http.StatusBadRequest {
		t.Fatalf("invalid id create = %d", code)
	}
	if code := do(t, h, "POST", "/v1/campaigns", `{"id":"bad-mech","mechanism":"nope"}`, nil); code != http.StatusBadRequest {
		t.Fatalf("unknown mechanism create = %d", code)
	}

	// Campaign sub-routes are the plain server API.
	if code := do(t, h, "POST", "/v1/campaigns/acme/join", `{"name":"ada"}`, nil); code != http.StatusCreated {
		t.Fatalf("campaign join = %d", code)
	}
	if code := do(t, h, "POST", "/v1/campaigns/acme/contribute", `{"name":"ada","amount":3}`, nil); code != http.StatusOK {
		t.Fatalf("campaign contribute = %d", code)
	}
	var info campaignInfo
	if code := do(t, h, "GET", "/v1/campaigns/acme", "", &info); code != http.StatusOK {
		t.Fatalf("info = %d", code)
	}
	if info.Participants != 1 || info.Contribution != 3 {
		t.Fatalf("info = %+v", info)
	}

	// Legacy /v1/* aliases hit the default campaign, not acme.
	if code := do(t, h, "POST", "/v1/join", `{"name":"zed"}`, nil); code != http.StatusCreated {
		t.Fatalf("legacy join = %d", code)
	}
	var defInfo campaignInfo
	do(t, h, "GET", "/v1/campaigns/"+DefaultID, "", &defInfo)
	if defInfo.Participants != 1 {
		t.Fatalf("default campaign = %+v", defInfo)
	}
	do(t, h, "GET", "/v1/campaigns/acme", "", &info)
	if info.Participants != 1 {
		t.Fatalf("acme leaked the legacy join: %+v", info)
	}
	// And reads through both spellings agree for the default campaign.
	var direct, aliased map[string]any
	do(t, h, "GET", "/v1/campaigns/"+DefaultID+"/rewards", "", &direct)
	do(t, h, "GET", "/v1/rewards", "", &aliased)
	if len(direct) == 0 || direct["total_contribution"] != aliased["total_contribution"] {
		t.Fatalf("alias mismatch: %v vs %v", direct, aliased)
	}

	// Unknown campaigns 404 on every sub-route.
	if code := do(t, h, "GET", "/v1/campaigns/ghost", "", nil); code != http.StatusNotFound {
		t.Fatalf("unknown info = %d", code)
	}
	if code := do(t, h, "POST", "/v1/campaigns/ghost/join", `{"name":"x"}`, nil); code != http.StatusNotFound {
		t.Fatalf("unknown route = %d", code)
	}

	// Delete removes the campaign and its directory; default is protected.
	if code := do(t, h, "DELETE", "/v1/campaigns/acme", "", nil); code != http.StatusOK {
		t.Fatalf("delete = %d", code)
	}
	if code := do(t, h, "GET", "/v1/campaigns/acme", "", nil); code != http.StatusNotFound {
		t.Fatalf("deleted campaign still served")
	}
	if _, err := os.Stat(filepath.Join(st.cfg.DataDir, "campaigns", "acme")); !os.IsNotExist(err) {
		t.Fatalf("campaign dir survived delete: %v", err)
	}
	if code := do(t, h, "DELETE", "/v1/campaigns/acme", "", nil); code != http.StatusNotFound {
		t.Fatalf("double delete = %d", code)
	}
	if code := do(t, h, "DELETE", "/v1/campaigns/"+DefaultID, "", nil); code != http.StatusBadRequest {
		t.Fatalf("default delete = %d", code)
	}
}

// TestStoreEphemeral runs the store without a data directory: fully
// servable, no files, checkpoints are no-ops.
func TestStoreEphemeral(t *testing.T) {
	cfg := testConfig("")
	st := openStore(t, cfg)
	h := st.Handler()
	if code := do(t, h, "POST", "/v1/campaigns", `{"id":"mem"}`, nil); code != http.StatusCreated {
		t.Fatalf("create = %d", code)
	}
	if code := do(t, h, "POST", "/v1/campaigns/mem/join", `{"name":"ada"}`, nil); code != http.StatusCreated {
		t.Fatalf("join = %d", code)
	}
	c, _ := st.Get("mem")
	if reclaimed, err := st.Checkpoint(c); err != nil || reclaimed != 0 {
		t.Fatalf("ephemeral checkpoint = %d, %v", reclaimed, err)
	}
	var out map[string]any
	if code := do(t, h, "POST", "/v1/campaigns/mem/checkpoint", "", &out); code != http.StatusOK {
		t.Fatalf("checkpoint endpoint = %d (%v)", code, out)
	}
}

// TestPerCampaignMetrics checks the campaign-labelled gauges appear on
// create and disappear on delete, alongside the store's own gauges.
func TestPerCampaignMetrics(t *testing.T) {
	cfg := testConfig(t.TempDir())
	cfg.Metrics = obs.NewRegistry()
	st := openStore(t, cfg)
	h := st.Handler()
	do(t, h, "POST", "/v1/campaigns", `{"id":"acme"}`, nil)
	do(t, h, "POST", "/v1/campaigns/acme/join", `{"name":"ada"}`, nil)
	do(t, h, "POST", "/v1/campaigns/acme/contribute", `{"name":"ada","amount":2}`, nil)

	var sb strings.Builder
	if err := cfg.Metrics.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"itree_campaigns 2",
		`itree_participants{campaign="acme"} 1`,
		`itree_contribution_total{campaign="acme"} 2`,
		`itree_ingest_batches_total{campaign="acme"} 2`,
		`itree_participants{campaign="default"} 0`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("metrics missing %q", want)
		}
	}

	do(t, h, "DELETE", "/v1/campaigns/acme", "", nil)
	sb.Reset()
	if err := cfg.Metrics.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out = sb.String()
	if strings.Contains(out, `campaign="acme"`) {
		t.Errorf("deleted campaign still scraped:\n%s", out)
	}
	if !strings.Contains(out, "itree_campaigns 1") {
		t.Errorf("campaign gauge not decremented")
	}
}

// TestFailedOpenReleasesCampaigns: when one campaign fails recovery,
// Open releases the ones it had already recovered: none of their
// series stays on the registry and none of their journals stays open.
func TestFailedOpenReleasesCampaigns(t *testing.T) {
	dir := t.TempDir()
	cfg := testConfig(dir)
	st := openStore(t, cfg)
	if _, err := st.Create(Meta{ID: "a", Mechanism: "geometric"}); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	// Campaign b sorts after a and names a mechanism nobody knows.
	bdir := filepath.Join(dir, "campaigns", "b")
	if err := os.MkdirAll(bdir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(bdir, "meta.json"), []byte(`{"id":"b","mechanism":"no-such-mechanism"}`), 0o644); err != nil {
		t.Fatal(err)
	}

	cfg.Metrics = obs.NewRegistry()
	if st, err := Open(cfg); err == nil {
		st.Close()
		t.Fatal("Open recovered a campaign with an unknown mechanism")
	}
	var sb strings.Builder
	if err := cfg.Metrics.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(sb.String(), `campaign="a"`); n > 0 {
		t.Errorf("failed Open left %d campaign=\"a\" series:\n%s", n, sb.String())
	}
	fds, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Skipf("no /proc/self/fd to list open files: %v", err)
	}
	root, err := filepath.EvalSymlinks(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, fd := range fds {
		target, err := os.Readlink(filepath.Join("/proc/self/fd", fd.Name()))
		if err == nil && strings.HasPrefix(target, root) {
			t.Errorf("failed Open left %s open", target)
		}
	}
}

// TestCreateDefaultsInherit checks mechanism/params fall back to the
// store-wide defaults.
func TestCreateDefaultsInherit(t *testing.T) {
	cfg := testConfig(t.TempDir())
	cfg.DefaultMechanism = "geometric"
	cfg.DefaultParams = core.Params{Phi: 0.3, FairShare: 0.01}
	st := openStore(t, cfg)
	var created campaignInfo
	if code := do(t, st.Handler(), "POST", "/v1/campaigns", `{"id":"plain"}`, &created); code != http.StatusCreated {
		t.Fatalf("create = %d", code)
	}
	if created.Mechanism != "geometric" || created.Phi != 0.3 {
		t.Fatalf("defaults not inherited: %+v", created)
	}
}

// TestForMechanism checks which mechanisms a campaign can run: every
// mechanism itreed serves has a local form — also behind the metrics
// wrapper itreed puts around it — and one without (Emek) is refused.
func TestForMechanism(t *testing.T) {
	cfg := testConfig("")
	reg := obs.NewRegistry()
	cfg.NewMechanism = func(name string, p core.Params) (core.Mechanism, error) {
		m, err := experiments.ByName(p, name)
		if err != nil {
			return nil, err
		}
		return experiments.Instrumented(m, reg), nil
	}
	st := openStore(t, cfg)
	for _, name := range experiments.MechanismNames() {
		if _, err := st.Create(Meta{ID: "c-" + name, Mechanism: name}); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
	cfg.NewMechanism = func(_ string, p core.Params) (core.Mechanism, error) { return emek.Default(p) }
	if st, err := Open(cfg); err == nil {
		st.Close()
		t.Fatal("store opened with a mechanism that has no local form")
	} else if !strings.Contains(err.Error(), "no local form") {
		t.Fatalf("Open = %v, want a no-local-form refusal", err)
	}
}

// TestRecoverLegacyIncrementalMeta: campaigns created while a
// per-campaign "incremental" switch existed recover, and create
// requests that still send it are accepted; the field is ignored.
func TestRecoverLegacyIncrementalMeta(t *testing.T) {
	dir := t.TempDir()
	cfg := testConfig(dir)
	st, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	h := st.Handler()
	if code := do(t, h, "POST", "/v1/campaigns", `{"id":"zeta","mechanism":"cdrm-reciprocal","incremental":true}`, nil); code != http.StatusCreated {
		t.Fatalf("create = %d", code)
	}
	workload(t, h, "zeta", 2, 20)
	pre := rewardsBytes(t, h, "zeta")
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	metaPath := filepath.Join(dir, "campaigns", "zeta", "meta.json")
	raw, err := os.ReadFile(metaPath)
	if err != nil {
		t.Fatal(err)
	}
	var meta map[string]any
	if err := json.Unmarshal(raw, &meta); err != nil {
		t.Fatal(err)
	}
	meta["incremental"] = true
	if raw, err = json.Marshal(meta); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(metaPath, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	st2 := openStore(t, cfg)
	if post := rewardsBytes(t, st2.Handler(), "zeta"); !bytes.Equal(pre, post) {
		t.Fatalf("recovered rewards differ\npre:  %s\npost: %s", pre, post)
	}
}
