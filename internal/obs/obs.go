// Package obs is a dependency-free observability toolkit for the
// Incentive Tree serving stack: atomic counters, float gauges,
// fixed-bucket latency histograms with percentile estimation, a
// concurrent metric registry, Prometheus text-format exposition, and
// HTTP middleware that records per-route traffic.
//
// Design goals, in order:
//
//  1. Zero dependencies — stdlib only, so every internal package may
//     import it without widening the module graph.
//  2. Cheap hot paths — recording a metric is a handful of atomic
//     operations; callers keep *Counter/*Gauge/*Histogram handles so
//     the registry map is only consulted at registration time.
//  3. Scrape-friendly — Registry.WritePrometheus emits the text
//     exposition format, and Registry.Snapshot returns the same data
//     structured for programmatic checks.
//
// Library packages (journal) record into the process-wide
// Default registry; the HTTP server takes an explicit *Registry so
// tests can isolate their recordings.
package obs

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing event count. The zero value is
// ready to use; all methods are safe for concurrent use.
type Counter struct {
	n atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.n.Add(1) }

// Add increases the counter by n.
func (c *Counter) Add(n uint64) { c.n.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.n.Load() }

// Gauge is an instantaneous float64 value (queue depth, utilization,
// in-flight requests). The zero value is ready to use.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add atomically adds delta (may be negative).
func (g *Gauge) Add(delta float64) {
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + delta)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// DefLatencyBuckets are the default histogram bounds, in seconds,
// spanning sub-microsecond operations up to multi-second full-tree
// evaluations.
var DefLatencyBuckets = []float64{
	1e-6, 2.5e-6, 5e-6, 1e-5, 2.5e-5, 5e-5, 1e-4, 2.5e-4, 5e-4,
	1e-3, 2.5e-3, 5e-3, 1e-2, 2.5e-2, 5e-2, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// Histogram is a fixed-bucket histogram with cumulative "le" semantics
// (bucket i counts observations <= bounds[i]; the final implicit bucket
// is +Inf). Observations are lock-free; reads see a consistent-enough
// view for monitoring (bucket counts and sum may momentarily disagree
// under concurrent writes).
type Histogram struct {
	bounds []float64
	counts []atomic.Uint64 // len(bounds)+1; last is +Inf
	sum    Gauge
	count  atomic.Uint64
}

// NewHistogram builds a histogram over the given strictly increasing
// upper bounds. Pass nil for DefLatencyBuckets.
func NewHistogram(bounds []float64) *Histogram {
	if bounds == nil {
		bounds = DefLatencyBuckets
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("obs: histogram bounds not increasing: %v", bounds))
		}
	}
	b := append([]float64(nil), bounds...)
	return &Histogram{bounds: b, counts: make([]atomic.Uint64, len(b)+1)}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	// Latency buckets are log-spaced and short; linear scan beats
	// sort.SearchFloat64s for the < ~25 bounds used here.
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.sum.Add(v)
	h.count.Add(1)
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return h.sum.Value() }

// Quantile estimates the q-quantile (0 <= q <= 1) by linear
// interpolation inside the bucket containing the target rank, the same
// estimate Prometheus' histogram_quantile computes. Observations in the
// +Inf bucket clamp to the largest finite bound. Returns 0 with no
// observations.
func (h *Histogram) Quantile(q float64) float64 {
	total := h.count.Load()
	if total == 0 || len(h.bounds) == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(total)
	var cum float64
	for i := range h.counts {
		n := float64(h.counts[i].Load())
		if cum+n >= rank || i == len(h.counts)-1 {
			if i >= len(h.bounds) {
				return h.bounds[len(h.bounds)-1]
			}
			lo := 0.0
			if i > 0 {
				lo = h.bounds[i-1]
			}
			hi := h.bounds[i]
			if n == 0 {
				return hi
			}
			return lo + (hi-lo)*((rank-cum)/n)
		}
		cum += n
	}
	return h.bounds[len(h.bounds)-1]
}

// bucketCounts returns the cumulative count per bound plus +Inf, in
// exposition order.
func (h *Histogram) bucketCounts() []uint64 {
	out := make([]uint64, len(h.counts))
	var cum uint64
	for i := range h.counts {
		cum += h.counts[i].Load()
		out[i] = cum
	}
	return out
}

// Metric kinds as reported by Snapshot and the exposition writer.
const (
	TypeCounter   = "counter"
	TypeGauge     = "gauge"
	TypeHistogram = "histogram"
)

// family groups all label-series of one metric name.
type family struct {
	name   string
	help   string
	typ    string
	series map[string]any // canonical label string -> *Counter | *Gauge | func() float64 | *Histogram
}

// Registry is a concurrent collection of named metrics. Registration
// methods are get-or-create: calling Counter twice with the same name
// and labels returns the same handle, so instrumented packages can
// register at init and hot paths never touch the registry map.
type Registry struct {
	mu       sync.RWMutex
	families map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

var defaultRegistry = NewRegistry()

// Default returns the process-wide registry used by library
// instrumentation (journal appends) and served
// by cmd/itreed's /metrics endpoint.
func Default() *Registry { return defaultRegistry }

// labelKey renders variadic "k1, v1, k2, v2, ..." pairs as the
// canonical `k1="v1",k2="v2"` series key, escaping per the Prometheus
// text format. Pairs are sorted by key.
func labelKey(labels []string) string {
	if len(labels) == 0 {
		return ""
	}
	if len(labels)%2 != 0 {
		panic(fmt.Sprintf("obs: odd label list %q", labels))
	}
	type kv struct{ k, v string }
	pairs := make([]kv, 0, len(labels)/2)
	for i := 0; i < len(labels); i += 2 {
		pairs = append(pairs, kv{labels[i], labels[i+1]})
	}
	sort.Slice(pairs, func(i, j int) bool { return pairs[i].k < pairs[j].k })
	var b strings.Builder
	for i, p := range pairs {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(p.k)
		b.WriteString(`="`)
		b.WriteString(escapeLabelValue(p.v))
		b.WriteByte('"')
	}
	return b.String()
}

func escapeLabelValue(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(v)
}

// register finds or creates the series for (name, labels), using make
// to build a fresh metric. It panics if name is already registered with
// a different type — a programming error, not a runtime condition.
func (r *Registry) register(name, help, typ string, labels []string, make func() any) any {
	key := labelKey(labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	fam, ok := r.families[name]
	if !ok {
		fam = &family{name: name, help: help, typ: typ, series: map[string]any{}}
		r.families[name] = fam
	}
	if fam.typ != typ {
		panic(fmt.Sprintf("obs: metric %q registered as %s, requested as %s", name, fam.typ, typ))
	}
	if fam.help == "" {
		fam.help = help
	}
	m, ok := fam.series[key]
	if !ok {
		m = make()
		fam.series[key] = m
	}
	return m
}

// Counter returns the counter for (name, labels), creating it on first
// use. Labels are variadic key/value pairs.
func (r *Registry) Counter(name, help string, labels ...string) *Counter {
	return r.register(name, help, TypeCounter, labels, func() any { return new(Counter) }).(*Counter)
}

// Gauge returns the gauge for (name, labels), creating it on first use.
func (r *Registry) Gauge(name, help string, labels ...string) *Gauge {
	return r.register(name, help, TypeGauge, labels, func() any { return new(Gauge) }).(*Gauge)
}

// GaugeFunc registers (or replaces) a gauge whose value is computed by
// fn at scrape time — for values derived from live state, like tree
// size or budget utilization. fn must be safe for concurrent calls.
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...string) {
	key := labelKey(labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	fam, ok := r.families[name]
	if !ok {
		fam = &family{name: name, help: help, typ: TypeGauge, series: map[string]any{}}
		r.families[name] = fam
	}
	if fam.typ != TypeGauge {
		panic(fmt.Sprintf("obs: metric %q registered as %s, requested as gauge func", name, fam.typ))
	}
	fam.series[key] = fn
}

// Histogram returns the histogram for (name, labels), creating it with
// the given bounds on first use (nil bounds = DefLatencyBuckets).
func (r *Registry) Histogram(name, help string, bounds []float64, labels ...string) *Histogram {
	return r.register(name, help, TypeHistogram, labels, func() any { return NewHistogram(bounds) }).(*Histogram)
}

// Unregister removes the series for (name, labels) from the registry,
// reporting whether it existed. When the last series of a family is
// removed the family itself disappears from exposition. It exists for
// dynamically-scoped metrics — e.g. per-campaign gauges whose campaign
// has been deleted — and is a no-op for unknown names. Outstanding
// metric handles stay usable but are no longer scraped.
func (r *Registry) Unregister(name string, labels ...string) bool {
	key := labelKey(labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	fam, ok := r.families[name]
	if !ok {
		return false
	}
	if _, ok := fam.series[key]; !ok {
		return false
	}
	delete(fam.series, key)
	if len(fam.series) == 0 {
		delete(r.families, name)
	}
	return true
}

// MetricValue is one series in a Snapshot.
type MetricValue struct {
	Name   string `json:"name"`
	Labels string `json:"labels,omitempty"`
	Type   string `json:"type"`
	// Value holds the counter or gauge value (counters are exact
	// integers below 2^53).
	Value float64 `json:"value"`
	// Histogram-only summary statistics.
	Count uint64  `json:"count,omitempty"`
	Sum   float64 `json:"sum,omitempty"`
	P50   float64 `json:"p50,omitempty"`
	P95   float64 `json:"p95,omitempty"`
	P99   float64 `json:"p99,omitempty"`
}

// Snapshot returns every series' current value, sorted by name then
// label key — the structured twin of WritePrometheus for JSON APIs.
func (r *Registry) Snapshot() []MetricValue {
	var out []MetricValue
	for _, fam := range r.collect() {
		for _, s := range fam.series {
			mv := MetricValue{Name: fam.name, Labels: s.key, Type: fam.typ}
			switch m := s.metric.(type) {
			case *Counter:
				mv.Value = float64(m.Value())
			case *Gauge:
				mv.Value = m.Value()
			case func() float64:
				mv.Value = m()
			case *Histogram:
				mv.Count = m.Count()
				mv.Sum = m.Sum()
				mv.P50 = m.Quantile(0.50)
				mv.P95 = m.Quantile(0.95)
				mv.P99 = m.Quantile(0.99)
			}
			out = append(out, mv)
		}
	}
	return out
}

// series is one (label set, metric) pair of a collected family.
type series struct {
	key    string
	metric any
}

// collectedFamily is a point-in-time copy of a family's series list,
// sorted for deterministic output.
type collectedFamily struct {
	name, help, typ string
	series          []series
}

// collect copies the registry's structure under the read lock so
// exposition can iterate without racing concurrent registrations.
// Metric values themselves are read atomically afterwards.
func (r *Registry) collect() []collectedFamily {
	r.mu.RLock()
	out := make([]collectedFamily, 0, len(r.families))
	for _, f := range r.families {
		cf := collectedFamily{name: f.name, help: f.help, typ: f.typ}
		for key, m := range f.series {
			cf.series = append(cf.series, series{key, m})
		}
		sort.Slice(cf.series, func(i, j int) bool { return cf.series[i].key < cf.series[j].key })
		out = append(out, cf)
	}
	r.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}
