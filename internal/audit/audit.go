// Package audit implements the online Sybil auditor: a per-campaign
// background service that reads committed versions of the tree and
// scores every node for the canonical attack shapes of the paper's
// Theorem-4 appendix — ε-chains, deep single-child chains, and star
// bursts — plus a bounded counterfactual probe (internal/sybil) asking
// whether the subtree's reward could be replicated by one honest node.
//
// Suspicion is tracked per subtree root with hysteresis: each scan that
// re-detects a shape pulls the root's score toward the shape's severity
// (EWMA), each clean scan decays it, and a root is flagged once the
// score crosses flagScore and unflagged only when it falls below
// clearScore. With AutoQuarantine, flagged roots whose shape severity
// clears quarantineSeverity are quarantined from payout through the
// journaled quarantine path. Only the exact equal-split signatures —
// ε-chains and star bursts — cross that gate: organic growth draws
// contributions from a continuum, so exact equality is measure-zero
// evidence of coordination, whereas deep chains with irregular
// contributions arise naturally under preferential attachment (and the
// probe rightly shows the mechanism rewards them — gaming potential is
// a property of the shape, not proof of intent). Those stay in the
// report for operator review, probe evidence attached.
package audit

import (
	"sort"
	"sync"
	"time"

	"incentivetree/internal/core"
	"incentivetree/internal/obs"
	"incentivetree/internal/tree"
)

// Source is the audited deployment. *server.Server implements it.
type Source interface {
	// Version returns the commit version, which moves whenever what a
	// read returns may have changed.
	Version() uint64
	// AuditSnapshot returns an owned clone of the current tree, the
	// sorted quarantine list, and the commit version they correspond to.
	AuditSnapshot() (*tree.Tree, []string, uint64)
	// Mechanism returns the deployment's reward mechanism.
	Mechanism() core.Mechanism
	// Quarantine withholds the named subtree from payout (journaled).
	Quarantine(name string) error
	// QuarantineCount reports how many quarantine flags are set.
	QuarantineCount() int
}

// Auditor tuning: canonical shapes flag after two confirming scans and
// unflag roughly two clean scans after a flag.
const (
	// minChainDepth is the minimum single-child chain length (number of
	// identities) reported as a chain shape.
	minChainDepth = 4
	// minStarFanout is the minimum equal-contribution sibling group
	// reported as a star burst.
	minStarFanout = 6
	// tolerance is the relative tolerance for "equal contribution"
	// comparisons.
	tolerance = 1e-9
	// alpha is the EWMA gain pulling a root's score toward the detected
	// severity on each confirming scan.
	alpha = 0.5
	// decay multiplies a tracked score on each scan that no longer
	// detects the shape.
	decay = 0.4
	// flagScore is the score at which a root becomes flagged.
	flagScore = 0.6
	// clearScore is the score below which a flagged root unflags.
	clearScore = 0.3
	// quarantineSeverity gates AutoQuarantine on the shape's base
	// severity (before any probe boost). It admits ε-chains (1.0) and
	// star bursts (0.9) but not deep chains (0.8): honest trees grow
	// irregular chains naturally, so chains — even probe-confirmed
	// ones — always need an operator.
	quarantineSeverity = 0.85
	// maxProbeNodes bounds the sybil-probe footprint (identities plus
	// re-attached child subtree nodes); larger candidates skip the
	// probe.
	maxProbeNodes = 512
)

// Config configures the auditor.
type Config struct {
	// AutoQuarantine lets the auditor quarantine flagged high-severity
	// roots itself (through Source.Quarantine).
	AutoQuarantine bool
	// Registry receives the itree_audit_* metric family (nil disables).
	Registry *obs.Registry
	// Labels are the metric labels (e.g. "campaign", id).
	Labels []string
}

// Finding is one scored suspect subtree in the audit report.
type Finding struct {
	// Root anchors the finding: the chain head, or the star center
	// (the first member when the center is the tree root). For chain
	// shapes Root is itself a suspected identity; for stars it is the
	// — possibly honest — sponsor the burst hangs under.
	Root string `json:"root"`
	// Shape is "epsilon-chain", "chain", or "star".
	Shape string `json:"shape"`
	// Score is the hysteresis-tracked suspicion in [0, 1].
	Score float64 `json:"score"`
	// Severity is the last-detected shape severity in [0, 1].
	Severity float64 `json:"severity"`
	// Flagged reports whether Score has crossed flagScore (and not yet
	// fallen below clearScore).
	Flagged bool `json:"flagged"`
	// Members are the suspected identity names (the shape witness).
	Members []string `json:"members"`
	// ProbeGain, when the sybil probe ran, is the reward advantage of
	// the observed arrangement over a single honest join (>0 means the
	// arrangement extracts more than one node would).
	ProbeGain float64 `json:"probe_gain,omitempty"`
	// AutoQuarantined reports that this auditor quarantined the finding.
	AutoQuarantined bool `json:"auto_quarantined,omitempty"`
	// FirstScan/LastScan are the scan indices bracketing the detections.
	FirstScan uint64 `json:"first_scan"`
	LastScan  uint64 `json:"last_scan"`
}

// Report is the wire payload of GET /v1/campaigns/{id}/audit.
type Report struct {
	// Scans counts completed (non-skipped) scan passes.
	Scans uint64 `json:"scans"`
	// Version is the commit version of the last scanned state.
	Version uint64 `json:"version"`
	// Flagged counts currently flagged roots.
	Flagged int `json:"flagged"`
	// Findings lists every tracked suspect, best score first.
	Findings []Finding `json:"findings"`
}

// Stats summarizes one Scan call.
type Stats struct {
	// Skipped is true when the commit version had not moved since the
	// last scan and no suspect was tracked, so no snapshot was taken.
	Skipped bool
	// Candidates is the number of nodes examined: the whole tree, root
	// included, on a scan that was not skipped.
	Candidates int
	// Detected is the number of roots with a shape detection this scan.
	Detected int
	// Flagged is the number of currently flagged roots after the scan.
	Flagged int
	// Quarantined is the number of names quarantined by this scan.
	Quarantined int
}

// suspect is the tracked per-root state behind a Finding.
type suspect struct {
	shape           string
	score           float64
	severity        float64
	members         []string
	probeGain       float64
	flagged         bool
	autoQuarantined bool
	firstScan       uint64
	lastScan        uint64
}

// Auditor audits one deployment. All methods are safe for concurrent
// use; concurrent Scan calls (the store's audit ticker racing an
// operator's scan-now request) serialize on scanMu.
type Auditor struct {
	cfg Config
	src Source

	// scanMu serializes whole Scan passes.
	scanMu sync.Mutex
	mu     sync.Mutex
	scores map[string]*suspect
	scans  uint64
	// version is the commit version of the last scanned snapshot.
	version uint64

	metricScans    *obs.Counter
	metricAutoQ    *obs.Counter
	metricFindings map[string]*obs.Counter
	metricFlagged  *obs.Gauge
	metricLatency  *obs.Histogram
}

// shapes are the reportable shape names (stable metric label values).
var shapes = []string{ShapeEpsilonChain, ShapeChain, ShapeStar}

// New creates an auditor over src. Its first Scan is never skipped, so
// commits from before the auditor attached are examined too.
func New(cfg Config, src Source) *Auditor {
	a := &Auditor{
		cfg:    cfg,
		src:    src,
		scores: make(map[string]*suspect),
	}
	if r := a.cfg.Registry; r != nil {
		labels := a.cfg.Labels
		a.metricScans = r.Counter("itree_audit_scans_total",
			"Completed audit scan passes.", labels...)
		a.metricAutoQ = r.Counter("itree_audit_quarantines_total",
			"Names auto-quarantined by the auditor.", labels...)
		a.metricFlagged = r.Gauge("itree_audit_flagged",
			"Subtree roots currently flagged as attack-shaped.", labels...)
		a.metricLatency = r.Histogram("itree_audit_scan_seconds",
			"Audit scan latency.", nil, labels...)
		r.GaugeFunc("itree_audit_quarantined_nodes",
			"Quarantine flags currently withholding payout.",
			func() float64 { return float64(src.QuarantineCount()) }, labels...)
		a.metricFindings = make(map[string]*obs.Counter, len(shapes))
		for _, s := range shapes {
			a.metricFindings[s] = r.Counter("itree_audit_findings_total",
				"Roots newly flagged, by attack shape.", append(append([]string{}, labels...), "shape", s)...)
		}
	}
	return a
}

// Close releases the auditor's metric series. The auditor must not be
// used afterwards.
func (a *Auditor) Close() {
	r := a.cfg.Registry
	if r == nil {
		return
	}
	labels := a.cfg.Labels
	r.Unregister("itree_audit_scans_total", labels...)
	r.Unregister("itree_audit_quarantines_total", labels...)
	r.Unregister("itree_audit_flagged", labels...)
	r.Unregister("itree_audit_scan_seconds", labels...)
	r.Unregister("itree_audit_quarantined_nodes", labels...)
	for _, s := range shapes {
		r.Unregister("itree_audit_findings_total", append(append([]string{}, labels...), "shape", s)...)
	}
}

// Scan runs one audit pass over the latest committed version: it
// examines every node against the shape detectors (and the sybil probe
// for detections), updates hysteresis scores, and — with
// AutoQuarantine — quarantines flagged high-severity roots. When the
// version has not moved since the last scan and no suspect is tracked,
// the scan returns at once with Stats.Skipped and takes no snapshot.
func (a *Auditor) Scan() Stats {
	a.scanMu.Lock()
	defer a.scanMu.Unlock()
	// Read the version before taking mu: mu is never held while the
	// server's lock is.
	current := a.src.Version()
	a.mu.Lock()
	idle := a.scans > 0 && current == a.version && len(a.scores) == 0
	a.mu.Unlock()
	if idle {
		return Stats{Skipped: true}
	}

	start := time.Now()
	t, quarantined, version := a.src.AuditSnapshot()

	detected := make(map[string]detection)
	for id := tree.NodeID(0); int(id) < t.Len(); id++ {
		for _, d := range detectShapes(t, id) {
			key := d.rootName(t)
			if prev, ok := detected[key]; ok && prev.severity >= d.severity {
				continue
			}
			detected[key] = d
		}
	}

	// Probe each detection's counterfactual: would one honest node
	// holding the same total earn at least as much? A positive gain is
	// direct evidence the arrangement games the mechanism.
	mech := a.src.Mechanism()
	for key, d := range detected {
		gain, ok := probeGain(mech, t, d.members, maxProbeNodes)
		if !ok {
			continue
		}
		d.probeGain = gain
		if gain > probeGainEps {
			d.severity = min(1, d.severity+probeSeverityBoost)
		}
		detected[key] = d
	}

	alreadyQuarantined := make(map[string]bool, len(quarantined))
	for _, name := range quarantined {
		alreadyQuarantined[name] = true
	}

	type quarantinePlan struct {
		key     string
		targets []string
	}
	a.mu.Lock()
	a.scans++
	a.version = version
	scan := a.scans
	var plans []quarantinePlan
	for key, d := range detected {
		sc := a.scores[key]
		if sc == nil {
			sc = &suspect{firstScan: scan}
			a.scores[key] = sc
		}
		sc.score += alpha * (d.severity - sc.score)
		sc.shape = d.shape
		sc.severity = d.severity
		sc.members = d.memberNames(t)
		sc.probeGain = d.probeGain
		sc.lastScan = scan
		if !sc.flagged && sc.score >= flagScore {
			sc.flagged = true
			if c := a.metricFindings[sc.shape]; c != nil {
				c.Inc()
			}
		}
		if a.cfg.AutoQuarantine && sc.flagged && !sc.autoQuarantined && shapeSeverity(sc.shape) >= quarantineSeverity {
			targets := d.quarantineTargets(t)
			pending := targets[:0]
			for _, name := range targets {
				if !alreadyQuarantined[name] {
					pending = append(pending, name)
				}
			}
			if len(pending) == 0 {
				sc.autoQuarantined = true
				continue
			}
			plans = append(plans, quarantinePlan{key: key, targets: append([]string(nil), pending...)})
		}
	}
	for key, sc := range a.scores {
		if _, ok := detected[key]; ok {
			continue
		}
		// Every node was examined, so no detection means the shape is
		// gone: decay.
		sc.score *= decay
		if sc.flagged && sc.score < clearScore {
			sc.flagged = false
		}
		if !sc.flagged && sc.score < dropScore {
			delete(a.scores, key)
		}
	}
	flagged := 0
	for _, sc := range a.scores {
		if sc.flagged {
			flagged++
		}
	}
	a.mu.Unlock()

	// Quarantine outside the auditor lock: Source.Quarantine takes the
	// server's write lock and appends to the journal.
	sort.Slice(plans, func(i, j int) bool { return plans[i].key < plans[j].key })
	quarantinedNow := 0
	var done []string
	for _, plan := range plans {
		ok := true
		for _, name := range plan.targets {
			if err := a.src.Quarantine(name); err != nil {
				// Retried next scan (the suspect stays un-marked); the
				// pre-check against the snapshot's quarantine list keeps
				// the common already-quarantined case from looping.
				ok = false
				continue
			}
			quarantinedNow++
			if a.metricAutoQ != nil {
				a.metricAutoQ.Inc()
			}
		}
		if ok {
			done = append(done, plan.key)
		}
	}
	if len(done) > 0 {
		a.mu.Lock()
		for _, key := range done {
			if sc := a.scores[key]; sc != nil {
				sc.autoQuarantined = true
			}
		}
		a.mu.Unlock()
	}

	if a.metricScans != nil {
		a.metricScans.Inc()
		a.metricFlagged.Set(float64(flagged))
		a.metricLatency.Observe(time.Since(start).Seconds())
	}
	return Stats{
		Candidates:  t.Len(),
		Detected:    len(detected),
		Flagged:     flagged,
		Quarantined: quarantinedNow,
	}
}

// Report returns the current findings, best score first (ties by root
// name, so the report is deterministic).
func (a *Auditor) Report() Report {
	a.mu.Lock()
	defer a.mu.Unlock()
	rep := Report{Scans: a.scans, Version: a.version, Findings: make([]Finding, 0, len(a.scores))}
	for key, sc := range a.scores {
		if sc.flagged {
			rep.Flagged++
		}
		rep.Findings = append(rep.Findings, Finding{
			Root:            key,
			Shape:           sc.shape,
			Score:           sc.score,
			Severity:        sc.severity,
			Flagged:         sc.flagged,
			Members:         append([]string(nil), sc.members...),
			ProbeGain:       sc.probeGain,
			AutoQuarantined: sc.autoQuarantined,
			FirstScan:       sc.firstScan,
			LastScan:        sc.lastScan,
		})
	}
	sort.Slice(rep.Findings, func(i, j int) bool {
		if rep.Findings[i].Score != rep.Findings[j].Score {
			return rep.Findings[i].Score > rep.Findings[j].Score
		}
		return rep.Findings[i].Root < rep.Findings[j].Root
	})
	return rep
}

const (
	// dropScore is the score below which an unflagged suspect is
	// forgotten entirely.
	dropScore = 0.05
	// probeGainEps is the minimum probe gain treated as real (absorbs
	// float noise in reward sums).
	probeGainEps = 1e-9
	// probeSeverityBoost is added to a detection's severity when the
	// probe shows the arrangement out-earns a single honest join.
	probeSeverityBoost = 0.2
)
