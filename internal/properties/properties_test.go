package properties_test

import (
	"strings"
	"testing"

	"incentivetree/internal/cdrm"
	"incentivetree/internal/core"
	"incentivetree/internal/geometric"
	"incentivetree/internal/lottree"
	"incentivetree/internal/properties"
	"incentivetree/internal/tdrm"
	"incentivetree/internal/tree"
)

// suite builds the six canonical mechanism instances used across the
// repository's experiments (see DESIGN.md).
func suite(t *testing.T) []core.Mechanism {
	t.Helper()
	p := core.DefaultParams()
	geo, err := geometric.Default(p)
	if err != nil {
		t.Fatal(err)
	}
	luxor, err := lottree.NewLLuxor(p, 0.5, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	pachira, err := lottree.NewLPachira(p, 0.1, 3)
	if err != nil {
		t.Fatal(err)
	}
	td, err := tdrm.Default(p)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := cdrm.DefaultReciprocal(p)
	if err != nil {
		t.Fatal(err)
	}
	lg, err := cdrm.DefaultLog(p)
	if err != nil {
		t.Fatal(err)
	}
	return []core.Mechanism{geo, luxor, pachira, td, rec, lg}
}

// expectedFailures is the paper's property matrix (Theorems 1, 2, 4, 5):
// for each mechanism, the set of properties it does NOT achieve.
func expectedFailures() []map[properties.Property]bool {
	return []map[properties.Property]bool{
		{properties.USA: true, properties.UGSA: true}, // Geometric (Thm 1)
		{properties.USA: true, properties.UGSA: true}, // L-Luxor ("same properties")
		{properties.SL: true, properties.UGSA: true},  // L-Pachira (Thm 2)
		{properties.UGSA: true},                       // TDRM (Thm 4)
		{properties.URO: true, properties.PO: true},   // CDRM-Reciprocal (Thm 5)
		{properties.URO: true, properties.PO: true},   // CDRM-Log (Thm 5)
	}
}

// TestMatrixMatchesPaper is the headline reproduction (experiment E1):
// every cell of the property matrix must match the paper's theorems.
func TestMatrixMatchesPaper(t *testing.T) {
	if testing.Short() {
		t.Skip("matrix run is a second-scale test")
	}
	mechs := suite(t)
	expected := expectedFailures()
	mat := properties.Run(mechs, properties.DefaultConfig())
	if len(mat.Rows) != len(mechs) {
		t.Fatalf("matrix has %d rows, want %d", len(mat.Rows), len(mechs))
	}
	for i, row := range mat.Rows {
		for _, p := range mat.Properties {
			v := row.Verdicts[p]
			wantHolds := !expected[i][p]
			if v.Holds != wantHolds {
				t.Errorf("%s / %s: got holds=%v, paper says %v\n  witness: %s",
					row.Mechanism, p, v.Holds, wantHolds, v.Witness)
			}
			if v.Checks == 0 {
				t.Errorf("%s / %s: zero checks performed", row.Mechanism, p)
			}
		}
	}
	if t.Failed() {
		t.Logf("matrix:\n%s", mat.Render())
	}
}

func TestPropertyStrings(t *testing.T) {
	for _, p := range properties.All() {
		if p.String() == "" || strings.HasPrefix(p.String(), "Property(") {
			t.Fatalf("bad string for property %d: %q", int(p), p)
		}
	}
	if got := properties.Property(99).String(); !strings.HasPrefix(got, "Property(") {
		t.Fatalf("unknown property string = %q", got)
	}
}

func TestVerdictString(t *testing.T) {
	v := properties.Verdict{Property: properties.CCI, Mechanism: "m", Holds: true, Checks: 3}
	if s := v.String(); !strings.Contains(s, "PASS") {
		t.Fatalf("String = %q", s)
	}
	v.Holds = false
	v.Witness = "boom"
	if s := v.String(); !strings.Contains(s, "FAIL") || !strings.Contains(s, "boom") {
		t.Fatalf("String = %q", s)
	}
}

// overpayer violates the budget (and nothing pays the root).
type overpayer struct{}

func (overpayer) Name() string        { return "overpayer" }
func (overpayer) Params() core.Params { return core.DefaultParams() }
func (overpayer) Local() core.Local   { return nil }
func (overpayer) Rewards(t *tree.Tree) (core.Rewards, error) {
	r := make(core.Rewards, t.Len())
	for id := 1; id < t.Len(); id++ {
		r[id] = 2 * t.Contribution(tree.NodeID(id))
	}
	return r, nil
}

// flatPayer pays a constant and thus fails CCI/CSI/RPC.
type flatPayer struct{}

func (flatPayer) Name() string        { return "flat" }
func (flatPayer) Params() core.Params { return core.DefaultParams() }
func (flatPayer) Local() core.Local   { return nil }
func (flatPayer) Rewards(t *tree.Tree) (core.Rewards, error) {
	r := make(core.Rewards, t.Len())
	for id := 1; id < t.Len(); id++ {
		r[id] = 0.01
	}
	return r, nil
}

func TestCheckersDetectBrokenMechanisms(t *testing.T) {
	cfg := properties.DefaultConfig()
	cfg.Corpus = 4

	if v := properties.CheckBudget(overpayer{}, cfg); v.Holds {
		t.Error("budget checker passed an overpayer")
	}
	if v := properties.CheckCCI(flatPayer{}, cfg); v.Holds {
		t.Error("CCI checker passed a flat payer")
	}
	if v := properties.CheckCSI(flatPayer{}, cfg); v.Holds {
		t.Error("CSI checker passed a flat payer")
	}
	if v := properties.CheckRPC(flatPayer{}, cfg); v.Holds {
		t.Error("RPC checker passed a flat payer")
	}
	if v := properties.CheckPO(flatPayer{}, cfg); v.Holds {
		t.Error("PO checker passed a flat payer")
	}
}

func TestSLFailureWitnessForLPachira(t *testing.T) {
	p := core.DefaultParams()
	m, err := lottree.NewLPachira(p, 0.1, 3)
	if err != nil {
		t.Fatal(err)
	}
	cfg := properties.DefaultConfig()
	cfg.Corpus = 4
	v := properties.CheckSL(m, cfg)
	if v.Holds {
		t.Fatal("L-Pachira should fail SL")
	}
	if !strings.Contains(v.Witness, "R") {
		t.Fatalf("uninformative witness: %q", v.Witness)
	}
}

func TestUROFailureMentionsLadder(t *testing.T) {
	m, err := cdrm.DefaultReciprocal(core.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	v := properties.CheckURO(m, properties.DefaultConfig())
	if v.Holds {
		t.Fatal("CDRM should fail URO")
	}
	if !strings.Contains(v.Witness, "ladder exhausted") {
		t.Fatalf("witness = %q", v.Witness)
	}
}

func TestUnknownPropertyVerdict(t *testing.T) {
	m, err := geometric.Default(core.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	v := properties.Check(properties.Property(77), m, properties.DefaultConfig())
	if v.Holds {
		t.Fatal("unknown property should not hold")
	}
}

func TestMatrixRenderAndFailures(t *testing.T) {
	m, err := geometric.Default(core.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	cfg := properties.DefaultConfig()
	cfg.Corpus = 3
	cfg.NodeSample = 4
	mat := properties.Run([]core.Mechanism{m}, cfg)
	out := mat.Render()
	if !strings.Contains(out, "Geometric") || !strings.Contains(out, "UGSA") {
		t.Fatalf("render missing headers:\n%s", out)
	}
	fails := mat.Failures()
	if len(fails) == 0 {
		t.Fatal("geometric should have failing properties (USA, UGSA)")
	}
	for _, f := range fails {
		if f.Witness == "" {
			t.Fatalf("failure without witness: %+v", f)
		}
	}
}
