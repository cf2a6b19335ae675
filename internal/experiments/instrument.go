package experiments

import (
	"time"

	"incentivetree/internal/core"
	"incentivetree/internal/obs"
	"incentivetree/internal/tree"
)

// sampleEvery is the latency sampling stride (a power of two): every
// evaluation is counted, but only one in sampleEvery is timed. Two
// clock reads cost ~100ns, which would be a >5% tax on a microsecond
// geometric evaluation; a uniform 1-in-8 sample keeps the histogram's
// percentile estimates while amortizing the clock cost to noise (see
// BenchmarkInstrumentedRewards).
const sampleEvery = 8

// Instrumented wraps m so every reward evaluation is counted and timed
// in reg under the mechanism's name:
//
//	itree_mechanism_rewards_total{mechanism}    evaluations
//	itree_mechanism_rewards_errors_total{mechanism} failed evaluations
//	itree_mechanism_rewards_seconds{mechanism}  evaluation latency histogram
//	                                      (sampled 1-in-8, so its
//	                                      _count trails the total)
//
// The serving daemon wraps its configured mechanism with this before
// building the server. The server keeps rewards current through the
// local form, which the wrapper forwards uncounted, so these series see
// only full evaluations: the audit service's probes.
func Instrumented(m core.Mechanism, reg *obs.Registry) core.Mechanism {
	return &timedMechanism{
		inner: m,
		evals: reg.Counter("itree_mechanism_rewards_total",
			"Reward evaluations, by mechanism.", "mechanism", m.Name()),
		errs: reg.Counter("itree_mechanism_rewards_errors_total",
			"Failed reward evaluations, by mechanism.", "mechanism", m.Name()),
		lat: reg.Histogram("itree_mechanism_rewards_seconds",
			"Reward evaluation latency in seconds, by mechanism.",
			nil, "mechanism", m.Name()),
	}
}

type timedMechanism struct {
	inner core.Mechanism
	evals *obs.Counter
	errs  *obs.Counter
	lat   *obs.Histogram
}

func (t *timedMechanism) Name() string        { return t.inner.Name() }
func (t *timedMechanism) Params() core.Params { return t.inner.Params() }
func (t *timedMechanism) Local() core.Local   { return t.inner.Local() }

func (t *timedMechanism) Rewards(tr *tree.Tree) (core.Rewards, error) {
	// The pre-increment count doubles as the sampling phase: the first
	// evaluation is always timed, then every sampleEvery-th after it.
	timed := t.evals.Value()%sampleEvery == 0
	t.evals.Inc()
	var start time.Time
	if timed {
		start = time.Now()
	}
	r, err := t.inner.Rewards(tr)
	if timed {
		t.lat.Observe(time.Since(start).Seconds())
	}
	if err != nil {
		t.errs.Inc()
	}
	return r, err
}
