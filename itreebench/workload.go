package main

import (
	"fmt"
	"math/rand"

	"incentivetree/internal/treegen"
)

// opKind is one request type of the measured op streams.
type opKind int

const (
	kindJoin opKind = iota
	kindContribute
	kindParticipant
	kindLeaderboard
	numKinds
)

var kindNames = [numKinds]string{"join", "contribute", "participant", "leaderboard"}

func (k opKind) String() string { return kindNames[k] }

// isWrite reports whether the kind changes campaign state.
func (k opKind) isWrite() bool { return k == kindJoin || k == kindContribute }

// op is one request of a measured stream.
type op struct {
	kind    opKind
	name    string
	sponsor string  // kindJoin only
	amount  float64 // kindContribute only
}

// workload is one fixed, seeded traffic mix against one campaign.
type workload struct {
	name      string
	mechanism string
	// honest is treegen.Mix's honest population; its viral cascades
	// add about 22% more participants.
	honest int
	// rate is the nominal speed, in ops/s, that sizes the op stream:
	// a run of s seconds drives rate·s writer ops whatever the program's
	// actual speed, so a faster commit cannot buy itself more work.
	rate float64
	// writers is the number of closed-loop clients that play a fixed
	// stream each; join, contribute and participant are the shares of
	// each stream.
	writers                       int
	join, contribute, participant float64
	// leaderReader adds one client that reads the leaderboard in a
	// closed loop until the writers are done.
	leaderReader bool
	// segments is how many equal parts of every client's stream the
	// measured phase plays one after the other. The end-to-end metrics
	// are medians over the parts, so a host stall spoils a part, not the
	// run; each part keeps at least ~50 samples of every kind.
	segments int
}

// Probes are the requests of each kind a workload's mix lacks, made by
// one client between the measured segments, outside their timing, so
// every workload reports every latency metric.
const probesPerKind = 200

var workloads = []workload{
	// The fixed cost of each request: HTTP, the ingest hand-off, journal
	// fsync, checkpoints. Reward evaluation is a small share here, so it
	// is the control for reward-layer changes.
	{
		name: "write-small", mechanism: "geometric", honest: 1000, rate: 3500,
		writers: 2, join: 0.05, contribute: 0.95, segments: 30,
	},
	// One O(n) reward evaluation per contribute and per participant read
	// at 10^5 participants.
	{
		name: "serve-large", mechanism: "cdrm-reciprocal", honest: 100000, rate: 600,
		writers: 2, contribute: 0.5, participant: 0.5, segments: 30,
	},
	// A TDRM writer beside a leaderboard reader whose cache misses
	// rebuild the view under the read lock the writer waits on.
	{
		name: "leaderboard-churn", mechanism: "tdrm", honest: 10000, rate: 25,
		writers: 1, contribute: 1, leaderReader: true, segments: 10,
	},
}

func workloadByName(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return workload{}, fmt.Errorf("unknown workload %q (want one of %v)", name, names)
}

// stream is everything a workload sends, generated from the seed alone.
type stream struct {
	// population builds the prepared state; its last suffix ops stay in
	// the journal after the checkpoint.
	population []treegen.Op
	suffix     int
	// prepTotal and prepCount are the contribution total and the
	// participant count the population leaves, summed from the ops.
	prepTotal float64
	prepCount int
	// clients holds one fixed op stream per writer client.
	clients [][]op
	// probes are made after the measured phase (see probesPerKind).
	probes []op
	// names is the prepared population, for warm-up reads.
	names []string
}

// maxSuffix bounds the journal suffix a prepared data directory keeps,
// so the suffix stays under the checkpoint size trigger.
const maxSuffix = 1000

// generate builds w's inputs for a run of writerOps writer ops. The
// same seed always gives the same stream.
func generate(w workload, seed int64, writerOps int) stream {
	rng := rand.New(rand.NewSource(seed))
	sc := treegen.Mix(rng, treegen.ScenarioConfig{Honest: w.honest})
	s := stream{population: sc.Ops(), names: sc.Honest, prepCount: len(sc.Honest)}
	s.suffix = min(len(s.population)/20, maxSuffix)
	for _, o := range s.population {
		if o.Kind == treegen.OpContribute {
			s.prepTotal += o.Amount
		}
	}
	amount := func() float64 { return 0.5 + 4*rng.Float64() }
	perClient := writerOps / w.writers
	for c := 0; c < w.writers; c++ {
		// Each client names only the population and its own joins, so
		// no op depends on the order in which clients interleave.
		known := sc.Honest[:len(sc.Honest):len(sc.Honest)]
		ops := make([]op, 0, perClient)
		for i := 0; i < perClient; i++ {
			target := known[rng.Intn(len(known))]
			switch x := rng.Float64(); {
			case x < w.join:
				name := fmt.Sprintf("bench-c%d-j%06d", c, i)
				ops = append(ops, op{kind: kindJoin, name: name, sponsor: target})
				known = append(known, name)
			case x < w.join+w.contribute:
				ops = append(ops, op{kind: kindContribute, name: target, amount: amount()})
			default:
				ops = append(ops, op{kind: kindParticipant, name: target})
			}
		}
		s.clients = append(s.clients, ops)
	}
	for i := 0; i < probesPerKind; i++ {
		if w.participant == 0 {
			s.probes = append(s.probes, op{kind: kindParticipant, name: sc.Honest[rng.Intn(len(sc.Honest))]})
		}
		if !w.leaderReader {
			s.probes = append(s.probes, op{kind: kindLeaderboard})
		}
	}
	return s
}
