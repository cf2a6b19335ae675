package obs_test

import (
	"net/http/httptest"
	"regexp"
	"strings"
	"testing"

	"incentivetree/internal/core"
	"incentivetree/internal/experiments"
	"incentivetree/internal/geometric"
	"incentivetree/internal/obs"
	"incentivetree/internal/server"

	// Registers the journal and sybil metric families on the default
	// registry at package init.
	_ "incentivetree/internal/journal"
	_ "incentivetree/internal/sybil"
)

// metricNamePattern is the module-wide naming contract, enforced
// statically by cmd/itreevet's metricname analyzer. This test is the
// runtime regression for the itree_ namespace migration: every metric
// any subsystem actually registers must land in the shared namespace,
// so a rename that drifts off-convention fails here even before the
// linter runs.
var metricNamePattern = regexp.MustCompile(`^itree_[a-z0-9_]+(_total|_seconds|_bytes)?$`)

func TestRegisteredMetricSurfaceIsItreeNamespaced(t *testing.T) {
	m, err := geometric.Default(core.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	s := server.New(experiments.Instrumented(m, reg), server.WithMetricsLabels(reg))
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Drive the surface so lazily created series exist: joins and a
	// contribution populate the domain gauges, the HTTP middleware
	// counters, and the instrumented-mechanism histograms.
	for _, body := range []string{
		`{"name":"ada"}`,
		`{"name":"bob","sponsor":"ada"}`,
	} {
		resp, err := ts.Client().Post(ts.URL+"/join", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}
	resp, err := ts.Client().Post(ts.URL+"/contribute", "application/json", strings.NewReader(`{"name":"bob","amount":2}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	resp, err = ts.Client().Get(ts.URL + "/tree")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	seen := 0
	for _, snap := range [][]obs.MetricValue{reg.Snapshot(), obs.Default().Snapshot()} {
		for _, mv := range snap {
			seen++
			if !metricNamePattern.MatchString(mv.Name) {
				t.Errorf("metric %q (type %s) escapes the itree_ namespace contract", mv.Name, mv.Type)
			}
		}
	}
	// The two registries together carry the server gauges, middleware
	// counters, mechanism histograms, and the journal/sybil families; a
	// collapse of that surface means registration silently broke.
	if seen < 15 {
		t.Fatalf("only %d metric series registered, expected the full instrumented surface", seen)
	}
}
