package experiments

import (
	"strings"
	"testing"

	"incentivetree/internal/core"
)

func TestByNameResolvesEveryKey(t *testing.T) {
	p := core.DefaultParams()
	for _, name := range MechanismNames() {
		m, err := ByName(p, name)
		if err != nil {
			t.Fatalf("ByName(%q): %v", name, err)
		}
		if m == nil || m.Name() == "" {
			t.Fatalf("ByName(%q) returned %v", name, m)
		}
	}
}

func TestByNameKeysMatchSuiteOrder(t *testing.T) {
	p := core.DefaultParams()
	mechs, err := Suite(p)
	if err != nil {
		t.Fatal(err)
	}
	names := MechanismNames()
	if len(names) != len(mechs) {
		t.Fatalf("%d keys for %d mechanisms", len(names), len(mechs))
	}
	for i, key := range names {
		m, err := ByName(p, key)
		if err != nil {
			t.Fatal(err)
		}
		if m.Name() != mechs[i].Name() {
			t.Fatalf("key %q resolves to %q, suite position holds %q", key, m.Name(), mechs[i].Name())
		}
	}
}

// TestByNameBuildsOnlyTheNamedMechanism: Φ = 0.4 with φ = 0.05 puts
// φ/Φ above L-Pachira's β = 0.1, which only L-Pachira rejects; every
// other mechanism still builds under those parameters.
func TestByNameBuildsOnlyTheNamedMechanism(t *testing.T) {
	p := core.Params{Phi: 0.4, FairShare: 0.05}
	for _, name := range MechanismNames() {
		_, err := ByName(p, name)
		if name == "l-pachira" {
			if err == nil || !strings.Contains(err.Error(), "experiments: l-pachira:") {
				t.Errorf("ByName(%q): err = %v, want L-Pachira's own refusal", name, err)
			}
			continue
		}
		if err != nil {
			t.Errorf("ByName(%q): %v", name, err)
		}
	}
}

func TestByNameUnknown(t *testing.T) {
	_, err := ByName(core.DefaultParams(), "ponzi")
	if err == nil {
		t.Fatal("unknown mechanism should fail")
	}
	if !strings.Contains(err.Error(), "geometric") {
		t.Fatalf("error should list valid names: %v", err)
	}
}

func TestPaperAndExtensionsPartitionAll(t *testing.T) {
	all := All()
	paper := Paper()
	ext := Extensions()
	if len(all) != len(paper)+len(ext) {
		t.Fatalf("All = %d, paper %d + extensions %d", len(all), len(paper), len(ext))
	}
	for i, r := range paper {
		if all[i].ID != r.ID {
			t.Fatalf("order mismatch at %d", i)
		}
	}
	for i, r := range ext {
		if all[len(paper)+i].ID != r.ID {
			t.Fatalf("extension order mismatch at %d", i)
		}
	}
}
