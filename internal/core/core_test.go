package core

import (
	"errors"
	"strings"
	"testing"

	"incentivetree/internal/tree"
)

// fixedMechanism returns canned rewards, for testing the audit logic.
type fixedMechanism struct {
	params  Params
	rewards Rewards
}

func (f fixedMechanism) Name() string   { return "fixed" }
func (f fixedMechanism) Params() Params { return f.params }
func (f fixedMechanism) Local() Local   { return nil }
func (f fixedMechanism) Rewards(*tree.Tree) (Rewards, error) {
	return f.rewards, nil
}

func TestParamsValidate(t *testing.T) {
	tests := []struct {
		name    string
		p       Params
		wantErr bool
	}{
		{"defaults", DefaultParams(), false},
		{"full budget", Params{Phi: 1, FairShare: 0}, false},
		{"fair equals budget", Params{Phi: 0.5, FairShare: 0.5}, false},
		{"zero budget", Params{Phi: 0, FairShare: 0}, true},
		{"negative budget", Params{Phi: -0.5, FairShare: 0}, true},
		{"budget above one", Params{Phi: 1.5, FairShare: 0}, true},
		{"negative fair share", Params{Phi: 0.5, FairShare: -0.1}, true},
		{"fair share above budget", Params{Phi: 0.5, FairShare: 0.6}, true},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.p.Validate()
			if (err != nil) != tc.wantErr {
				t.Fatalf("Validate(%+v) err = %v, wantErr %v", tc.p, err, tc.wantErr)
			}
			if err != nil && !errors.Is(err, ErrBadParams) {
				t.Fatalf("error %v should wrap ErrBadParams", err)
			}
		})
	}
}

func TestRewardsAccessors(t *testing.T) {
	r := Rewards{0, 1.5, 2.5}
	if got := r.Of(1); got != 1.5 {
		t.Errorf("Of(1) = %v", got)
	}
	if got := r.Of(tree.NodeID(99)); got != 0 {
		t.Errorf("Of(out of range) = %v", got)
	}
	if got := r.Of(tree.None); got != 0 {
		t.Errorf("Of(None) = %v", got)
	}
	if got := r.Total(); got != 4 {
		t.Errorf("Total = %v", got)
	}
}

func TestProfitAndPayment(t *testing.T) {
	tr := tree.FromSpecs(tree.Spec{C: 3})
	r := Rewards{0, 1}
	if got := Profit(tr, r, 1); got != -2 {
		t.Errorf("Profit = %v, want -2", got)
	}
	if got := Payment(tr, r, 1); got != 2 {
		t.Errorf("Payment = %v, want 2", got)
	}
}

func TestAuditAccepts(t *testing.T) {
	tr := tree.FromSpecs(tree.Spec{C: 4, Kids: []tree.Spec{{C: 6}}})
	m := fixedMechanism{params: Params{Phi: 0.5, FairShare: 0}, rewards: Rewards{0, 2, 3}}
	r, _ := m.Rewards(tr)
	if err := Audit(m, tr, r); err != nil {
		t.Fatalf("Audit: %v", err)
	}
}

func TestAuditRejections(t *testing.T) {
	tr := tree.FromSpecs(tree.Spec{C: 4, Kids: []tree.Spec{{C: 6}}})
	tests := []struct {
		name    string
		rewards Rewards
		wantSub string
	}{
		{"wrong length", Rewards{0, 1}, "entries"},
		{"root rewarded", Rewards{1, 1, 1}, "root"},
		{"negative reward", Rewards{0, -1, 1}, "negative"},
		{"over budget", Rewards{0, 3, 3}, "budget"},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			m := fixedMechanism{params: Params{Phi: 0.5}, rewards: tc.rewards}
			err := Audit(m, tr, tc.rewards)
			if err == nil {
				t.Fatal("Audit should fail")
			}
			var av *AuditViolation
			if !errors.As(err, &av) {
				t.Fatalf("error %T is not *AuditViolation", err)
			}
			if !strings.Contains(err.Error(), tc.wantSub) {
				t.Fatalf("error %q missing %q", err.Error(), tc.wantSub)
			}
		})
	}
}

func TestAuditToleratesFloatNoiseAtBudget(t *testing.T) {
	tr := tree.FromSpecs(tree.Spec{C: 1})
	m := fixedMechanism{params: Params{Phi: 0.5}, rewards: Rewards{0, 0.5 + 1e-13}}
	if err := Audit(m, tr, m.rewards); err != nil {
		t.Fatalf("noise-level overshoot should pass: %v", err)
	}
}

func TestRewardsOrPanic(t *testing.T) {
	tr := tree.FromSpecs(tree.Spec{C: 1})
	m := fixedMechanism{params: DefaultParams(), rewards: Rewards{0, 0.1}}
	if got := RewardsOrPanic(m, tr); got.Of(1) != 0.1 {
		t.Fatalf("RewardsOrPanic = %v", got)
	}
}
