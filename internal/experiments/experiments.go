// Package experiments contains the runnable reproductions of every
// table-like and figure-like artifact in the paper (see DESIGN.md §4 for
// the index). Each experiment returns a structured Result that the
// cmd/experiments binary renders into EXPERIMENTS.md-ready markdown and
// that tests assert against the paper's claims.
package experiments

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"

	"incentivetree/internal/cdrm"
	"incentivetree/internal/core"
	"incentivetree/internal/geometric"
	"incentivetree/internal/lottree"
	"incentivetree/internal/sybil"
	"incentivetree/internal/tdrm"
)

// Result is one experiment's rendered outcome.
type Result struct {
	// ID is the experiment identifier from DESIGN.md (e.g. "E01").
	ID string
	// Title describes the experiment and its paper source.
	Title string
	// Header and Rows form the result table.
	Header []string
	Rows   [][]string
	// Notes carry free-form observations (expected vs measured).
	Notes []string
	// OK reports whether the measured shape matches the paper's claim.
	OK bool
}

// Render formats the result as a markdown section.
func (r Result) Render() string {
	var b strings.Builder
	status := "MATCHES PAPER"
	if !r.OK {
		status = "MISMATCH"
	}
	fmt.Fprintf(&b, "## %s — %s [%s]\n\n", r.ID, r.Title, status)
	if len(r.Header) > 0 {
		b.WriteString("| " + strings.Join(r.Header, " | ") + " |\n")
		b.WriteString("|" + strings.Repeat("---|", len(r.Header)) + "\n")
		for _, row := range r.Rows {
			b.WriteString("| " + strings.Join(row, " | ") + " |\n")
		}
		b.WriteString("\n")
	}
	for _, n := range r.Notes {
		fmt.Fprintf(&b, "- %s\n", n)
	}
	return b.String()
}

// Suite constructs the six canonical mechanism instances compared
// throughout the repository:
//
//	Geometric(a=1/3, b at budget bound)  — Sect. 4.1, Theorem 1
//	L-Luxor(beta=0.5, a=0.5)             — Sect. 4.2 (reconstructed Luxor)
//	L-Pachira(beta=0.1, delta=3)         — Sect. 4.2, Theorem 2; the
//	    convex-enough pi makes its UGSA failure visible to bounded search
//	TDRM(defaults)                       — Sect. 5, Theorem 4
//	CDRM-Reciprocal, CDRM-Log            — Sect. 6, Theorem 5
func Suite(p core.Params) ([]core.Mechanism, error) {
	mechs := make([]core.Mechanism, 0, len(MechanismNames()))
	for _, name := range MechanismNames() {
		m, err := ByName(p, name)
		if err != nil {
			return nil, err
		}
		mechs = append(mechs, m)
	}
	return mechs, nil
}

// MechanismNames lists the selector keys accepted by ByName, in suite
// order.
func MechanismNames() []string {
	return []string{"geometric", "l-luxor", "l-pachira", "tdrm", "cdrm-reciprocal", "cdrm-log"}
}

// ByName builds the suite mechanism with the given selector key (see
// MechanismNames) and no other, so parameters only it rejects fail
// only it.
func ByName(p core.Params, name string) (core.Mechanism, error) {
	var m core.Mechanism
	var err error
	switch name {
	case "geometric":
		m, err = geometric.Default(p)
	case "l-luxor":
		m, err = lottree.NewLLuxor(p, 0.5, 0.5)
	case "l-pachira":
		m, err = lottree.NewLPachira(p, 0.1, 3)
	case "tdrm":
		m, err = tdrm.Default(p)
	case "cdrm-reciprocal":
		m, err = cdrm.DefaultReciprocal(p)
	case "cdrm-log":
		m, err = cdrm.DefaultLog(p)
	default:
		return nil, fmt.Errorf("experiments: unknown mechanism %q (choose one of %s)",
			name, strings.Join(MechanismNames(), ", "))
	}
	if err != nil {
		return nil, fmt.Errorf("experiments: %s: %w", name, err)
	}
	return m, nil
}

// Workers bounds the parallelism of the experiments that fan out — the
// E01 property matrix and the Sybil attack searches: 0 means GOMAXPROCS,
// 1 forces the serial paths. Results are identical at every setting;
// cmd/experiments routes its -workers flag here.
var Workers int

// searchOptions applies the package worker bound to a search
// configuration.
func searchOptions(o sybil.SearchOptions) sybil.SearchOptions {
	o.Workers = Workers
	return o
}

// Runner executes one experiment.
type Runner struct {
	ID  string
	Run func() (Result, error)
}

// All lists every experiment in DESIGN.md order: the twelve paper
// reproductions E01-E12 followed by the extension/ablation experiments
// X01-X04.
func All() []Runner {
	return append(Paper(), Extensions()...)
}

// Paper lists the reproductions of the paper's own artifacts.
func Paper() []Runner {
	return []Runner{
		{"E01", E01PropertyMatrix},
		{"E02", E02Impossibility},
		{"E03", E03TDRMCounterexample},
		{"E04", E04GeometricChainAttack},
		{"E05", E05Fig1Scenarios},
		{"E06", E06RCTTransform},
		{"E07", E07EpsilonChainOptimality},
		{"E08", E08CDRMConditions},
		{"E09", E09BudgetAudit},
		{"E10", E10PachiraSLViolation},
		{"E11", E11RewardScaling},
		{"E12", E12GrowthSimulation},
	}
}

// Extensions lists the ablation experiments for the design choices
// DESIGN.md calls out (Sect. 4.3 review, RCT cap, Geometric decay, and
// the falsification-bound calibration).
func Extensions() []Runner {
	return []Runner{
		{"X01", X01EmekCSIFailure},
		{"X02", X02TDRMMuAblation},
		{"X03", X03GeometricDecayAblation},
		{"X04", X04SearchConvergence},
		{"X05", X05EquilibriumContribution},
		{"X06", X06RewardFlow},
	}
}

// RunAll executes every experiment and returns the results in order.
func RunAll() ([]Result, error) {
	var out []Result
	for _, r := range All() {
		res, err := r.Run()
		if err != nil {
			return nil, fmt.Errorf("experiments: %s: %w", r.ID, err)
		}
		out = append(out, res)
	}
	return out, nil
}

// f formats table values with 6 significant digits. strconv produces
// the same bytes as fmt.Sprintf("%.6g", v) without fmt's reflection
// overhead, which dominated the experiment benchmarks (E02/E04).
func f(v float64) string { return strconv.FormatFloat(v, 'g', 6, 64) }

// newRand builds a deterministic source for experiment workloads.
func newRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

func mark(ok bool) string {
	if ok {
		return "✓"
	}
	return "✗"
}
