// Command itreeload drives an itreed instance with a synthetic
// join/contribute workload and reports throughput plus latency
// percentiles, so the effect of group commit's two bounds (-batch-max
// and -queue-depth on itreed) can be measured end to end.
//
// Usage:
//
//	itreeload [-addr http://127.0.0.1:8080] [-campaign id]
//	          [-workers 8] [-rate 0] [-duration 5s]
//	          [-participants 64] [-join-frac 0.05] [-seed 1]
//	          [-read-frac 0] [-read-targets url1,url2]
//	          [-scenario steady|honest|adversarial|settlement]
//	          [-settle-every 0] [-audit-report]
//
// The generator first seeds a population of participants (untimed),
// then runs the measured phase for -duration: each worker issues
// contribute requests against random members of the population,
// mixed with fresh joins at -join-frac and leaderboard reads at
// -read-frac. With -rate 0 the load is closed-loop (each worker sends
// back to back, so offered load tracks service rate); a positive
// -rate opens the loop, pacing the fleet at that many requests per
// second regardless of response times.
//
// # Scenarios
//
// -scenario selects the seed-phase shape (see internal/treegen):
//
//   - steady (default): flat random-sponsor joins, the historical
//     behavior.
//
//   - honest: organic growth — preferential attachment, viral
//     cascades, churned contributions — with no planted attacks.
//
//   - adversarial: the honest mix plus injected Sybil arrangements
//     (ε-chains, deep chains, star bursts) with known ground truth,
//     for exercising the audit service (-audit-interval on itreed).
//
//   - settlement: steady seeding, but while the measured contributes
//     flow a driver settles a payout epoch every -settle-every
//     (default: a quarter of -duration) and fires a claim burst at
//     each epoch boundary — every settled share claimed twice,
//     concurrently, so the idempotent claims ledger is hammered
//     exactly where it matters. Duplicate claims answering 409 are
//     counted as conflicts, not failures, and the run fails unless
//     the double-claim bursts split exactly evenly into claims and
//     conflicts. The summary is one parseable line:
//
//     itreeload: settlement epochs=3 idle_settles=0 claims=96 claim_conflicts=96 settle_failures=0 claim_failures=0
//
//     The regular latency percentiles cover the contribute stream
//     running through the settle commits, so group-commit latency
//     under settlement load is visible in the same report.
//
// Scenario generation is deterministic in -seed: the same seed
// produces the identical operation stream (the seed phase applies it
// sequentially), so audit findings are reproducible run over run. The
// measured phase then targets only the honest population.
//
// With -audit-report, after the measured phase the tool forces two
// audit scans (hysteresis needs a confirming pass) and prints one
// parseable line comparing the campaign's audit findings against the
// scenario's ground truth:
//
//	itreeload: audit findings=4 matched_injections=3/3 false_findings=0 quarantined=2 quarantined_honest=0
//
// matched_injections counts planted arrangements identified by a
// flagged finding; false_findings counts flagged findings naming no
// planted identity; quarantined_honest counts quarantined names
// outside the planted set (always 0 unless the auditor misfires).
//
// Reads fan out round-robin across -read-targets (default: -addr), so
// a primary plus its read replicas can be measured as one serving
// surface; writes always go to -addr. A 503 on a read is counted as
// shed, not failed — that is a follower enforcing its staleness bound.
//
// Responses are counted three ways: ok (2xx), shed (429 admission
// control, or 503 on reads), and failed (anything else). The process
// exits non-zero when any request failed; shed requests are reported
// but are not failures.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"incentivetree/internal/treegen"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "itreeload:", err)
		os.Exit(1)
	}
}

// config is the parsed flag set of one load run.
type config struct {
	base         string   // write API prefix, e.g. http://host:port/v1
	readBases    []string // read API prefixes, round-robin fan-out
	workers      int
	rate         float64 // req/s across all workers; 0 = closed loop
	duration     time.Duration
	participants int
	joinFrac     float64
	readFrac     float64
	seed         int64
	scenario     string
	settleEvery  time.Duration
	auditReport  bool
}

// counters aggregates response outcomes across workers.
type counters struct {
	ok, shed, failed atomic.Uint64
	joinNames        atomic.Uint64 // allocator for unique join names
	readRR           atomic.Uint64 // round-robin cursor over readBases
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("itreeload", flag.ContinueOnError)
	fs.SetOutput(stdout)
	addr := fs.String("addr", "http://127.0.0.1:8080", "base URL of the itreed API")
	campaign := fs.String("campaign", "", "target campaign id (default: the legacy /v1/* alias)")
	workers := fs.Int("workers", 8, "concurrent load connections")
	rate := fs.Float64("rate", 0, "open-loop offered load in req/s across all workers (0 = closed loop)")
	duration := fs.Duration("duration", 5*time.Second, "measured phase length")
	participants := fs.Int("participants", 64, "population seeded before the measured phase")
	joinFrac := fs.Float64("join-frac", 0.05, "fraction of measured ops that are fresh joins")
	readFrac := fs.Float64("read-frac", 0, "fraction of measured ops that are leaderboard reads")
	readTargets := fs.String("read-targets", "",
		"comma-separated base URLs reads fan out to round-robin, e.g. a primary and its followers (default: -addr)")
	seed := fs.Int64("seed", 1, "PRNG seed for workload shape; scenario op streams are identical for identical seeds")
	scenario := fs.String("scenario", "steady",
		"seed-phase shape: steady (flat random joins), honest (organic growth), adversarial (organic growth + injected Sybil arrangements), settlement (steady + epoch settles with claim bursts)")
	settleEvery := fs.Duration("settle-every", 0,
		"epoch settlement cadence under -scenario=settlement (0 = a quarter of -duration)")
	auditReport := fs.Bool("audit-report", false,
		"after the measured phase, force two audit scans and print findings vs the scenario's ground truth")
	if err := fs.Parse(args); err != nil {
		return err
	}
	switch *scenario {
	case "steady", "honest", "adversarial", "settlement":
	default:
		return fmt.Errorf("unknown -scenario %q (want steady, honest, adversarial, or settlement)", *scenario)
	}
	cfg := config{
		base:         apiBase(*addr, *campaign),
		workers:      *workers,
		rate:         *rate,
		duration:     *duration,
		participants: *participants,
		joinFrac:     *joinFrac,
		readFrac:     *readFrac,
		seed:         *seed,
		scenario:     *scenario,
		settleEvery:  *settleEvery,
		auditReport:  *auditReport,
	}
	if cfg.settleEvery <= 0 {
		cfg.settleEvery = cfg.duration / 4
		if cfg.settleEvery <= 0 {
			cfg.settleEvery = time.Millisecond
		}
	}
	if *readTargets == "" {
		cfg.readBases = []string{cfg.base}
	} else {
		for _, t := range strings.Split(*readTargets, ",") {
			t = strings.TrimSpace(t)
			if t == "" {
				continue
			}
			cfg.readBases = append(cfg.readBases, apiBase(t, *campaign))
		}
	}
	if len(cfg.readBases) == 0 {
		return fmt.Errorf("-read-targets has no usable URLs")
	}
	if cfg.readFrac < 0 || cfg.readFrac > 1 {
		return fmt.Errorf("-read-frac must be within [0,1]")
	}
	if cfg.workers < 1 || cfg.participants < 1 {
		return fmt.Errorf("need at least 1 worker and 1 participant")
	}

	client := &http.Client{
		Timeout: 30 * time.Second,
		Transport: &http.Transport{
			MaxIdleConns:        cfg.workers,
			MaxIdleConnsPerHost: cfg.workers,
		},
	}

	names, sc, err := seedPopulation(client, cfg)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "itreeload: seeded %d participants against %s (%s scenario, %d injected arrangements)\n",
		len(names), cfg.base, cfg.scenario, len(sc.Injected))

	var c counters
	var sst settlementStats
	stopSettle := make(chan struct{})
	var settleWG sync.WaitGroup
	if cfg.scenario == "settlement" {
		settleWG.Add(1)
		go settlementLoop(client, cfg, stopSettle, &sst, &settleWG)
	}
	latencies := measure(client, cfg, names, &c)
	close(stopSettle)
	settleWG.Wait()

	ok, shed, failed := c.ok.Load(), c.shed.Load(), c.failed.Load()
	secs := cfg.duration.Seconds()
	fmt.Fprintf(stdout, "itreeload: %d ok, %d shed (429), %d failed in %.2fs\n", ok, shed, failed, secs)
	fmt.Fprintf(stdout, "itreeload: throughput %.1f ops/s\n", float64(ok)/secs)
	if len(latencies) > 0 {
		sort.Slice(latencies, func(i, j int) bool { return latencies[i] < latencies[j] })
		fmt.Fprintf(stdout, "itreeload: latency p50 %s p95 %s p99 %s\n",
			percentile(latencies, 0.50), percentile(latencies, 0.95), percentile(latencies, 0.99))
	}
	if cfg.scenario == "settlement" {
		if err := reportSettlement(&sst, stdout); err != nil {
			return err
		}
	}
	if cfg.auditReport {
		if err := reportAudit(client, cfg, sc, stdout); err != nil {
			return err
		}
	}
	if failed > 0 {
		return fmt.Errorf("%d requests failed", failed)
	}
	return nil
}

// apiBase maps a daemon base URL to its API prefix for a campaign
// ("" = the legacy /v1/* alias).
func apiBase(addr, campaign string) string {
	base := strings.TrimRight(addr, "/") + "/v1"
	if campaign != "" {
		base += "/campaigns/" + campaign
	}
	return base
}

// seedPopulation builds the pre-measurement population (untimed) and
// returns the contribution-target names plus the scenario's ground
// truth (empty for -scenario=steady). Seeding retries shed (429)
// requests: the population must exist before the measured phase, and a
// load test that cannot seed is an error. The op stream is a pure
// function of -seed, so identical seeds reproduce identical trees.
func seedPopulation(client *http.Client, cfg config) ([]string, treegen.Scenario, error) {
	rng := rand.New(rand.NewSource(cfg.seed))
	if cfg.scenario == "honest" || cfg.scenario == "adversarial" {
		sc := treegen.Mix(rng, scenarioConfig(cfg))
		for _, op := range sc.Ops() {
			var err error
			switch op.Kind {
			case treegen.OpJoin:
				err = seedRequest(client, cfg.base+"/join",
					map[string]any{"name": op.Name, "sponsor": op.Sponsor})
			case treegen.OpContribute:
				err = seedRequest(client, cfg.base+"/contribute",
					map[string]any{"name": op.Name, "amount": op.Amount})
			}
			if err != nil {
				return nil, sc, err
			}
		}
		// The measured phase drives only the honest population: sybil
		// identities stay exactly as planted, so audit ground truth holds.
		return sc.Honest, sc, nil
	}
	names := make([]string, 0, cfg.participants)
	for i := 0; i < cfg.participants; i++ {
		name := fmt.Sprintf("load-p%04d", i)
		sponsor := ""
		if len(names) > 0 {
			sponsor = names[rng.Intn(len(names))]
		}
		if err := seedRequest(client, cfg.base+"/join", map[string]any{"name": name, "sponsor": sponsor}); err != nil {
			return nil, treegen.Scenario{}, err
		}
		names = append(names, name)
	}
	return names, treegen.Scenario{}, nil
}

// scenarioConfig maps the flag surface onto a treegen mix: the honest
// population tracks -participants, and the adversarial variant plants
// arrangements of every canonical shape, scaled with population.
func scenarioConfig(cfg config) treegen.ScenarioConfig {
	sc := treegen.ScenarioConfig{Honest: cfg.participants}
	if cfg.scenario == "adversarial" {
		n := cfg.participants / 32
		if n < 1 {
			n = 1
		}
		sc.EpsilonChains, sc.Chains, sc.Stars = n, n, n
	}
	return sc
}

// seedRequest posts one seed-phase op, retrying shed (429) responses.
// 4xx is tolerated (a rerun against a warm daemon re-joins existing
// names); 5xx is fatal.
func seedRequest(client *http.Client, url string, body map[string]any) error {
	var status int
	for attempt := 0; attempt < 50; attempt++ {
		var err error
		status, err = post(client, url, body)
		if err != nil {
			return fmt.Errorf("seed %v: %w", body["name"], err)
		}
		if status != http.StatusTooManyRequests {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if status >= 500 {
		return fmt.Errorf("seed %v: HTTP %d", body["name"], status)
	}
	return nil
}

// reportAudit forces two audit scans (hysteresis needs the confirming
// pass), fetches the audit report, and prints one parseable line
// scoring the findings against the scenario's ground truth.
func reportAudit(client *http.Client, cfg config, sc treegen.Scenario, stdout io.Writer) error {
	for i := 0; i < 2; i++ {
		status, err := post(client, cfg.base+"/audit/scan", map[string]any{})
		if err != nil {
			return fmt.Errorf("audit scan: %w", err)
		}
		if status != http.StatusOK {
			return fmt.Errorf("audit scan: HTTP %d (is itreed running with -audit-interval?)", status)
		}
	}
	req, err := http.NewRequest(http.MethodGet, cfg.base+"/audit", nil)
	if err != nil {
		return err
	}
	resp, err := client.Do(req)
	if err != nil {
		return fmt.Errorf("audit report: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("audit report: HTTP %d", resp.StatusCode)
	}
	var rep struct {
		Quarantined []string `json:"quarantined"`
		Report      *struct {
			Findings []struct {
				Root    string   `json:"root"`
				Flagged bool     `json:"flagged"`
				Members []string `json:"members"`
			} `json:"findings"`
		} `json:"report"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&rep); err != nil {
		return fmt.Errorf("audit report: %w", err)
	}

	planted := sc.SybilNames()
	matched, falseFindings, flagged := 0, 0, 0
	type finding struct {
		root    string
		members []string
	}
	var flaggedFindings []finding
	if rep.Report != nil {
		for _, f := range rep.Report.Findings {
			if !f.Flagged {
				continue
			}
			flagged++
			flaggedFindings = append(flaggedFindings, finding{f.Root, f.Members})
			hit := planted[f.Root]
			for _, m := range f.Members {
				hit = hit || planted[m]
			}
			if !hit {
				falseFindings++
			}
		}
	}
	for _, inj := range sc.Injected {
		set := make(map[string]bool, len(inj.Members))
		for _, m := range inj.Members {
			set[m] = true
		}
		for _, f := range flaggedFindings {
			ok := set[f.root]
			for _, m := range f.members {
				ok = ok || set[m]
			}
			if ok {
				matched++
				break
			}
		}
	}
	quarantinedHonest := 0
	for _, name := range rep.Quarantined {
		if !planted[name] {
			quarantinedHonest++
		}
	}
	fmt.Fprintf(stdout, "itreeload: audit findings=%d matched_injections=%d/%d false_findings=%d quarantined=%d quarantined_honest=%d\n",
		flagged, matched, len(sc.Injected), falseFindings, len(rep.Quarantined), quarantinedHonest)
	return nil
}

// measure runs the timed phase and returns every request's latency.
func measure(client *http.Client, cfg config, names []string, c *counters) []time.Duration {
	var (
		wg      sync.WaitGroup
		mu      sync.Mutex
		all     []time.Duration
		stop    = make(chan struct{})
		pace    <-chan time.Time
		stopTmr = time.AfterFunc(cfg.duration, func() { close(stop) })
	)
	defer stopTmr.Stop()
	if cfg.rate > 0 {
		t := time.NewTicker(time.Duration(float64(time.Second) / cfg.rate))
		defer t.Stop()
		pace = t.C
	}
	for w := 0; w < cfg.workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(cfg.seed + int64(w)*7919))
			lat := make([]time.Duration, 0, 4096)
			for {
				if pace != nil {
					select {
					case <-pace:
					case <-stop:
						mu.Lock()
						all = append(all, lat...)
						mu.Unlock()
						return
					}
				}
				select {
				case <-stop:
					mu.Lock()
					all = append(all, lat...)
					mu.Unlock()
					return
				default:
				}
				method, url, body := nextOp(cfg, rng, names, c)
				start := time.Now()
				status, err := do(client, method, url, body)
				lat = append(lat, time.Since(start))
				switch {
				case err == nil && status == http.StatusTooManyRequests:
					c.shed.Add(1)
				case err == nil && method == http.MethodGet && status == http.StatusServiceUnavailable:
					// A follower enforcing its staleness bound: backpressure,
					// not failure.
					c.shed.Add(1)
				case err != nil || status >= 400:
					c.failed.Add(1)
				default:
					c.ok.Add(1)
				}
			}
		}(w)
	}
	wg.Wait()
	return all
}

// nextOp picks the next request: a leaderboard read with probability
// readFrac (fanned out round-robin across the read targets), else a
// fresh join with probability joinFrac, else a contribution by a
// random seeded participant. Writes always target cfg.base.
func nextOp(cfg config, rng *rand.Rand, names []string, c *counters) (string, string, map[string]any) {
	if cfg.readFrac > 0 && rng.Float64() < cfg.readFrac {
		base := cfg.readBases[int(c.readRR.Add(1))%len(cfg.readBases)]
		return http.MethodGet, base + "/leaderboard?k=10", nil
	}
	if rng.Float64() < cfg.joinFrac {
		n := c.joinNames.Add(1)
		return http.MethodPost, cfg.base + "/join", map[string]any{
			"name":    fmt.Sprintf("load-j%08d", n),
			"sponsor": names[rng.Intn(len(names))],
		}
	}
	return http.MethodPost, cfg.base + "/contribute", map[string]any{
		"name":   names[rng.Intn(len(names))],
		"amount": 0.5 + rng.Float64(),
	}
}

// post sends one JSON request and returns the status code; the body is
// drained so connections are reused.
func post(client *http.Client, url string, body map[string]any) (int, error) {
	return do(client, http.MethodPost, url, body)
}

// do sends one request (JSON body for POSTs) and returns the status
// code; the response body is drained so connections are reused.
func do(client *http.Client, method, url string, body map[string]any) (int, error) {
	var rd io.Reader
	if body != nil {
		data, err := json.Marshal(body)
		if err != nil {
			return 0, err
		}
		rd = bytes.NewReader(data)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		return 0, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := client.Do(req)
	if err != nil {
		return 0, err
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode, nil
}

// percentile returns the q-th percentile of sorted latencies (nearest
// rank), rounded for display.
func percentile(sorted []time.Duration, q float64) time.Duration {
	idx := int(q*float64(len(sorted))+0.5) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx].Round(10 * time.Microsecond)
}
