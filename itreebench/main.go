// Command itreebench is the end-to-end benchmark of the itreed daemon.
// It composes the daemon in-process the way cmd/itreed does, restarts
// it from a prepared data directory, drives one of three fixed, seeded
// op streams over loopback HTTP with closed-loop clients, checks the
// answers, and prints one JSON line of metrics. See README.md for the
// workloads, the metrics and the layer map.
//
// Usage, from the repository root:
//
//	bash itreebench/run.sh --workload write-small|serve-large|leaderboard-churn \
//	    --seed N --seconds S --trace 0|1
//
// With --trace 0 the JSON holds the end-to-end metrics. With --trace 1
// the run first repeats the workload untraced, then traced, and the
// JSON holds the per-layer metrics; the lines above it give the layer
// breakdown and the tracing overhead.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// buildDir is where runs keep data directories and trace files,
// relative to the directory the benchmark runs in.
const buildDir = ".bench_build"

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("itreebench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "write-small, serve-large or leaderboard-churn")
	seed := fs.Int64("seed", 1, "seed of the population and the op streams")
	seconds := fs.Int("seconds", 10, "nominal length of the measured phase; sizes the op stream")
	trace := fs.Int("trace", 0, "1 = traced run printing the per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, err := workloadByName(*name)
	if err == nil && (*seconds < 1 || *trace < 0 || *trace > 1) {
		err = fmt.Errorf("need --seconds >= 1 and --trace 0 or 1")
	}
	if err != nil {
		fmt.Fprintf(stderr, "itreebench: %v\n", err)
		return 2
	}
	res, err := bench(w, *seed, *seconds, *trace == 1, stdout)
	if err != nil {
		fmt.Fprintf(stderr, "itreebench: %v\n", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "itreebench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

func bench(w workload, seed int64, seconds int, trace bool, stdout io.Writer) (*result, error) {
	root, err := filepath.Abs(filepath.Join(buildDir, "runs", fmt.Sprintf("%s-seed%d-pid%d", w.name, seed, os.Getpid())))
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(root, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(root)

	writerOps := int(w.rate * float64(seconds))
	s := generate(w, seed, writerOps)
	image := filepath.Join(root, "image")
	start := time.Now()
	if err := prepareImage(image, w, &s); err != nil {
		return nil, err
	}
	s.population = nil // on disk now
	fmt.Fprintf(stdout, "itreebench: %s seed=%d prepared %d participants (%d-event journal suffix) in %.1fs\n",
		w.name, seed, s.prepCount, s.suffix, time.Since(start).Seconds())

	if !trace {
		r, err := runSession(w, &s, image, root, setupReps, nil)
		if err != nil {
			return nil, err
		}
		report(stdout, "run", r)
		printEnv(stdout, root, r)
		return summarize(endToEnd(r), r), nil
	}

	untraced, err := runSession(w, &s, image, root, 1, nil)
	if err != nil {
		return nil, err
	}
	report(stdout, "untraced", untraced)
	// The untraced session consumed the client streams; the seed gives
	// the traced one the same streams again.
	s2 := generate(w, seed, writerOps)
	s2.population = nil
	tr := newTracer()
	traced, err := runSession(w, &s2, image, root, 1, tr)
	if err != nil {
		return nil, err
	}
	report(stdout, "traced", traced)
	printEnv(stdout, root, traced)
	spans := tr.snapshot()
	read, decode, replay, err := imageTimings(image, w)
	if err != nil {
		return nil, err
	}
	batches := int(traced.counters.batchCount)
	appendMean, err := appendTiming(root, traced.measured.acked, batches)
	if err != nil {
		return nil, err
	}
	metrics, lines := perLayer(traced, aggregate(spans, traced.windows), read, decode, replay, appendMean)
	for _, l := range lines {
		fmt.Fprintln(stdout, l)
	}
	ratioP50, overhead := traceOverhead(untraced, traced)
	metrics["trace.overhead_ratio"] = metric{Value: ratioP50, Unit: "ratio"}
	fmt.Fprintln(stdout, overhead)

	tdir := filepath.Join(buildDir, "traces")
	if err := os.MkdirAll(tdir, 0o755); err != nil {
		return nil, err
	}
	tfile := filepath.Join(tdir, fmt.Sprintf("%s-seed%d.jsonl", w.name, seed))
	if err := writeSpans(tfile, spans); err != nil {
		return nil, err
	}
	fmt.Fprintf(stdout, "spans: %d written to %s\n", len(spans), tfile)
	return summarize(metrics, untraced, traced), nil
}

// summarize wraps the metrics with the sessions' request counts and the
// outcome of their checks.
func summarize(metrics map[string]metric, sessions ...*sessionResult) *result {
	res := &result{Correct: true, Metrics: metrics}
	for _, r := range sessions {
		res.Attempted += r.attempted()
		res.Failed += r.failed()
		if r.failed() != 0 || r.checkErr != nil {
			res.Correct = false
			fmt.Fprintf(os.Stderr, "itreebench: check failed: %v\n", r.firstErr())
		}
	}
	return res
}

// latencies returns the samples of kind k: from the measured segments
// when the workload's mix has the kind, from the probes otherwise.
func latencies(r *sessionResult, k opKind) ([]time.Duration, string) {
	if !r.inMix(k) {
		return append([]time.Duration(nil), r.probes.lat[k]...), "probe"
	}
	var l []time.Duration
	for _, sg := range r.segs {
		l = append(l, sg.t.lat[k]...)
	}
	return l, "mix"
}

// inMix reports whether the measured segments hold samples of kind k.
func (r *sessionResult) inMix(k opKind) bool {
	for _, sg := range r.segs {
		if len(sg.t.lat[k]) > 0 {
			return true
		}
	}
	return false
}

// endToEnd returns the gated end-to-end metrics. Throughput and the
// p90s are printed on the report lines only: on a host with steal time
// they spread wider than any bound a later change could be held to (see
// README.md).
func endToEnd(r *sessionResult) map[string]metric {
	m := map[string]metric{
		"setup_s":       {percentile(append([]time.Duration(nil), r.setups...), 0.5).Seconds(), "s"},
		"cpu_ms_per_op": {segMedian(r, func(sg segment) float64 { return ms(sg.cpu) / float64(sg.t.completed()) }), "ms"},
		"heap_live_mb":  {float64(r.heapLive) / 1e6, "MB"},
		"disk_mb":       {float64(r.disk) / 1e6, "MB"},
	}
	for _, k := range []opKind{kindContribute, kindParticipant, kindLeaderboard} {
		m[k.String()+"_p50_ms"] = metric{latencyStat(r, k, 0.5), "ms"}
	}
	return m
}

// latencyStat is the q-quantile of kind k's latency in ms: the median
// over the segments of each segment's quantile when the mix has the
// kind, the quantile of all probe samples otherwise.
func latencyStat(r *sessionResult, k opKind, q float64) float64 {
	if r.inMix(k) {
		return segMedian(r, func(sg segment) float64 { return ms(percentile(sg.t.lat[k], q)) })
	}
	return ms(percentile(r.probes.lat[k], q))
}

func (sg segment) throughput() float64 { return float64(sg.t.completed()) / sg.wall.Seconds() }

// segMedian returns the median over the measured segments of f.
func segMedian(r *sessionResult, f func(segment) float64) float64 {
	vals := make([]float64, len(r.segs))
	for i, sg := range r.segs {
		vals[i] = f(sg)
	}
	sort.Float64s(vals)
	n := len(vals)
	if n%2 == 1 {
		return vals[n/2]
	}
	return (vals[n/2-1] + vals[n/2]) / 2
}

// report prints a session's latency percentiles with sample counts.
func report(w io.Writer, label string, r *sessionResult) {
	fmt.Fprintf(w, "%s: %d ops in %.3fs (%.1f ops/s), %d failed (%d shed), cpu %.4f ms/op, steal %d ticks, setup median %.4fs of %d\n",
		label, r.measured.completed(), r.wall.Seconds(), float64(r.measured.completed())/r.wall.Seconds(), r.failed(), r.measured.shed+r.probes.shed+r.warmup.shed,
		ms(r.cpu)/float64(r.measured.completed()), r.steal, percentile(append([]time.Duration(nil), r.setups...), 0.5).Seconds(), len(r.setups))
	for k := opKind(0); k < numKinds; k++ {
		l, src := latencies(r, k)
		if len(l) == 0 {
			continue
		}
		fmt.Fprintf(w, "  %-12s n=%-6d (%s) p50 %.4f ms  p90 %.4f ms  p99 %.4f ms\n",
			k, len(l), src, ms(percentile(l, 0.5)), ms(percentile(l, 0.9)), ms(percentile(l, 0.99)))
	}
	fmt.Fprintf(w, "  ungated: throughput %.2f ops/s (median of segments);", segMedian(r, segment.throughput))
	for _, k := range []opKind{kindContribute, kindParticipant, kindLeaderboard} {
		fmt.Fprintf(w, " %s p90 %.4f ms;", k, latencyStat(r, k, 0.9))
	}
	fmt.Fprintln(w)
	fmt.Fprintf(w, "  segments (ops/s):")
	for _, sg := range r.segs {
		fmt.Fprintf(w, " %.0f", sg.throughput())
	}
	fmt.Fprintln(w)
}

// traceOverhead compares a traced session with the untraced one of the
// same run: contribute p50, every kind's p50 and throughput.
func traceOverhead(untraced, traced *sessionResult) (float64, string) {
	out := "tracing overhead (traced/untraced):"
	var contribute float64
	for k := opKind(0); k < numKinds; k++ {
		a, _ := latencies(untraced, k)
		b, _ := latencies(traced, k)
		if len(a) == 0 || len(b) == 0 {
			continue
		}
		r := ratio(float64(percentile(b, 0.5)), float64(percentile(a, 0.5)))
		if k == kindContribute {
			contribute = r
		}
		out += fmt.Sprintf(" %s p50 %.3fx,", k, r)
	}
	tput := func(r *sessionResult) float64 { return float64(r.measured.completed()) / r.wall.Seconds() }
	out += fmt.Sprintf(" throughput %.3fx", ratio(tput(traced), tput(untraced)))
	return contribute, out
}

func printEnv(w io.Writer, dataDir string, r *sessionResult) {
	env := newEnvRecord(dataDir)
	env.StealTicks = r.steal
	line, _ := json.Marshal(env)
	fmt.Fprintf(w, "env: %s\n", line)
}

// percentile returns the nearest-rank q-quantile of samples (q in
// (0,1]), sorting them in place; 0 for no samples.
func percentile(samples []time.Duration, q float64) time.Duration {
	if len(samples) == 0 {
		return 0
	}
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	i := int(math.Ceil(q*float64(len(samples)))) - 1
	return samples[max(i, 0)]
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
