// Package cdrm implements the Contribution-Deterministic Reward
// Mechanisms of Sect. 6 of the paper: mechanisms whose reward
// R(u) = R(x_u, y_u) depends only on a participant's own contribution
// x_u = C(u) and the total contribution of its proper descendants
// y_u = C(T_u \ {u}) — never on the topology of the subtree.
//
// A function R(x, y) is "successfully contribution-deterministic" when,
// for all x > 0 and y >= 0,
//
//	(i)   0 < dR/dx < 1
//	(ii)  0 < dR/dy
//	(iii) phi*x < R(x, y) < Phi*x
//	(iv)  R(x, y) >= R(x', x''+y) + R(x'', y)  whenever x' + x'' = x.
//
// Theorem 5: a mechanism distributing rewards by such a function achieves
// every desirable property except URO (and hence PO). The package
// provides the two concrete instances from Algorithm 5 and a numeric
// verifier for the four conditions.
package cdrm

import (
	"fmt"
	"math"

	"incentivetree/internal/core"
	"incentivetree/internal/tree"
)

// Function is a candidate contribution-deterministic reward function
// R(x, y).
type Function interface {
	// Name identifies the function in experiment output.
	Name() string
	// Eval returns R(x, y) for own contribution x >= 0 and descendant
	// contribution y >= 0.
	Eval(x, y float64) float64
}

// Reciprocal is instance (i) of Algorithm 5:
//
//	R(x, y) = (Phi - theta/(1 + x + y)) * x,  theta + phi < Phi.
type Reciprocal struct {
	Phi   float64
	Theta float64
}

// Name implements Function.
func (f Reciprocal) Name() string {
	return fmt.Sprintf("CDRM-Reciprocal(theta=%.3g)", f.Theta)
}

// Eval implements Function.
func (f Reciprocal) Eval(x, y float64) float64 {
	return (f.Phi - f.Theta/(1+x+y)) * x
}

// Log is instance (ii) of Algorithm 5:
//
//	R(x, y) = Phi*x + theta * ln((1+y)/(x+y+1)),  theta + phi < Phi.
type Log struct {
	Phi   float64
	Theta float64
}

// Name implements Function.
func (f Log) Name() string { return fmt.Sprintf("CDRM-Log(theta=%.3g)", f.Theta) }

// Eval implements Function.
func (f Log) Eval(x, y float64) float64 {
	if x == 0 {
		return 0
	}
	return f.Phi*x + f.Theta*math.Log((1+y)/(x+y+1))
}

// Blend is the convex combination W*A + (1-W)*B of two candidate
// functions. The family of successfully contribution-deterministic
// functions is closed under convex combination — each of conditions
// (i)-(iv) is preserved by positive weighted sums — so blending two
// admissible instances yields a third, letting deployments interpolate
// between reward schedules (e.g. mostly-Reciprocal with a Log component).
type Blend struct {
	// W is the weight of A, in (0, 1).
	W    float64
	A, B Function
}

// Name implements Function.
func (f Blend) Name() string {
	return fmt.Sprintf("CDRM-Blend(%.3g*%s + %.3g*%s)", f.W, f.A.Name(), 1-f.W, f.B.Name())
}

// Eval implements Function.
func (f Blend) Eval(x, y float64) float64 {
	return f.W*f.A.Eval(x, y) + (1-f.W)*f.B.Eval(x, y)
}

// NewBlend validates the weight and wraps the blend of both Algorithm 5
// instances at the given theta.
func NewBlend(p core.Params, w, theta float64) (*Mechanism, error) {
	if !(w > 0 && w < 1) {
		return nil, fmt.Errorf("%w: blend weight %v, need 0 < w < 1", core.ErrBadParams, w)
	}
	if err := validateTheta(p, theta); err != nil {
		return nil, err
	}
	return New(p, Blend{
		W: w,
		A: Reciprocal{Phi: p.Phi, Theta: theta},
		B: Log{Phi: p.Phi, Theta: theta},
	})
}

// Mechanism adapts a contribution-deterministic function to
// core.Mechanism.
type Mechanism struct {
	params core.Params
	fn     Function
}

// New wraps fn. The caller is responsible for choosing a function whose
// parameters respect theta + phi < Phi; the constructors NewReciprocal
// and NewLog enforce that regime.
func New(p core.Params, fn Function) (*Mechanism, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return &Mechanism{params: p, fn: fn}, nil
}

// NewReciprocal builds the Reciprocal instance, validating
// 0 < theta and theta + phi < Phi.
func NewReciprocal(p core.Params, theta float64) (*Mechanism, error) {
	if err := validateTheta(p, theta); err != nil {
		return nil, err
	}
	return New(p, Reciprocal{Phi: p.Phi, Theta: theta})
}

// NewLog builds the Log instance, validating 0 < theta and
// theta + phi < Phi.
func NewLog(p core.Params, theta float64) (*Mechanism, error) {
	if err := validateTheta(p, theta); err != nil {
		return nil, err
	}
	return New(p, Log{Phi: p.Phi, Theta: theta})
}

func validateTheta(p core.Params, theta float64) error {
	if !(theta > 0) {
		return fmt.Errorf("%w: theta = %v, need theta > 0", core.ErrBadParams, theta)
	}
	if !(theta+p.FairShare < p.Phi) {
		return fmt.Errorf("%w: theta = %v, need theta + phi < Phi (phi = %v, Phi = %v)",
			core.ErrBadParams, theta, p.FairShare, p.Phi)
	}
	return nil
}

// DefaultReciprocal returns the Reciprocal instance used across the
// experiments, with theta at 80% of its admissible ceiling.
func DefaultReciprocal(p core.Params) (*Mechanism, error) {
	return NewReciprocal(p, 0.8*(p.Phi-p.FairShare))
}

// DefaultLog returns the Log instance used across the experiments.
func DefaultLog(p core.Params) (*Mechanism, error) {
	return NewLog(p, 0.8*(p.Phi-p.FairShare))
}

// Name implements core.Mechanism.
func (m *Mechanism) Name() string { return m.fn.Name() }

// Params implements core.Mechanism.
func (m *Mechanism) Params() core.Params { return m.params }

// Func returns the underlying reward function.
func (m *Mechanism) Func() Function { return m.fn }

// Rewards implements core.Mechanism in O(n) using one bottom-up pass for
// the subtree sums.
func (m *Mechanism) Rewards(t *tree.Tree) (core.Rewards, error) {
	return m.RewardsInto(t, nil)
}

// RewardsInto implements core.IntoMechanism with zero allocations,
// through the local form.
func (m *Mechanism) RewardsInto(t *tree.Tree, buf core.Rewards) (core.Rewards, error) {
	return core.EvalLocal(m, t, buf)
}

// Local implements core.Mechanism: the mechanism is its own local form,
// with A(u) = C(T_u), so y_u = A(u) - C(u).
func (m *Mechanism) Local() core.Local { return m }

// Start implements core.Local: C(u), then the children's C(T_k).
func (m *Mechanism) Start(t *tree.Tree, u tree.NodeID) float64 { return t.Contribution(u) }

// Term implements core.Local: C(T_k).
func (m *Mechanism) Term(_ *tree.Tree, agg []float64, k tree.NodeID) float64 { return agg[k] }

// Reward implements core.Local: R(x_u, y_u).
func (m *Mechanism) Reward(t *tree.Tree, agg []float64, u tree.NodeID, _ float64) float64 {
	x := t.Contribution(u)
	return m.fn.Eval(x, agg[u]-x)
}

// UsesTotal implements core.Local.
func (m *Mechanism) UsesTotal() bool { return false }
