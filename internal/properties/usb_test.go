package properties_test

import (
	"strings"
	"testing"

	"incentivetree/internal/core"
	"incentivetree/internal/properties"
	"incentivetree/internal/tree"
)

// depthPayer rewards participants more the deeper they join — a
// deliberately USB-violating mechanism used to prove the checker's
// teeth (a joiner would bypass its solicitor to join deeper).
type depthPayer struct{}

func (depthPayer) Name() string        { return "depth-payer" }
func (depthPayer) Params() core.Params { return core.DefaultParams() }
func (depthPayer) Local() core.Local   { return nil }
func (depthPayer) Rewards(t *tree.Tree) (core.Rewards, error) {
	r := make(core.Rewards, t.Len())
	depths := t.Depths()
	for id := 1; id < t.Len(); id++ {
		r[id] = 0.001 * float64(depths[id]) * (1 + t.Contribution(tree.NodeID(id)))
	}
	return r, nil
}

func TestUSBCheckerDetectsPositionDependence(t *testing.T) {
	cfg := properties.DefaultConfig()
	cfg.Corpus = 4
	v := properties.CheckUSB(depthPayer{}, cfg)
	if v.Holds {
		t.Fatal("USB checker passed a position-dependent payer")
	}
	if !strings.Contains(v.Witness, "joining under") {
		t.Fatalf("witness = %q", v.Witness)
	}
}

// slowlyLeaky pays a node a tiny share of the GLOBAL total — an SL
// violation too small for coarse eyeballing but within the checker's
// tolerance discrimination.
type slowlyLeaky struct{}

func (slowlyLeaky) Name() string        { return "slowly-leaky" }
func (slowlyLeaky) Params() core.Params { return core.DefaultParams() }
func (slowlyLeaky) Local() core.Local   { return nil }
func (slowlyLeaky) Rewards(t *tree.Tree) (core.Rewards, error) {
	r := make(core.Rewards, t.Len())
	total := t.Total()
	for id := 1; id < t.Len(); id++ {
		r[id] = 0.01*t.Contribution(tree.NodeID(id)) + 1e-6*total
	}
	return r, nil
}

func TestSLCheckerDetectsTinyGlobalLeak(t *testing.T) {
	cfg := properties.DefaultConfig()
	cfg.Corpus = 3
	v := properties.CheckSL(slowlyLeaky{}, cfg)
	if v.Holds {
		t.Fatal("SL checker passed a globally-coupled mechanism")
	}
}

// erroring fails mid-evaluation; every checker must surface the error as
// a failed verdict rather than panic.
type erroring struct{}

func (erroring) Name() string        { return "erroring" }
func (erroring) Params() core.Params { return core.DefaultParams() }
func (erroring) Local() core.Local   { return nil }
func (erroring) Rewards(t *tree.Tree) (core.Rewards, error) {
	return nil, core.ErrBadParams
}

func TestCheckersSurfaceMechanismErrors(t *testing.T) {
	cfg := properties.DefaultConfig()
	cfg.Corpus = 2
	for _, p := range properties.All() {
		v := properties.Check(p, erroring{}, cfg)
		if v.Holds {
			t.Errorf("%s: erroring mechanism passed", p)
		}
		if v.Witness == "" {
			t.Errorf("%s: no witness for the error", p)
		}
	}
}
