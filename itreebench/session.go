package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"incentivetree/internal/core"
	"incentivetree/internal/obs"
	"incentivetree/internal/store"
)

// setupReps is how many times a session restarts the daemon from the
// prepared image; setup_s is the median.
const setupReps = 11

// warmupReads is the participant reads each client makes before the
// measured phase, untimed, to open connections and fill lazy state.
const warmupReads = 5

// segment is what one part of the measured phase measured.
type segment struct {
	t     *tally
	wall  time.Duration
	cpu   time.Duration
	steal int64 // host steal ticks
}

// sessionResult is what one daemon lifetime measured.
type sessionResult struct {
	setups   []time.Duration
	segs     []segment
	measured *tally // all segments' counts merged; latencies stay in segs
	wall     time.Duration
	cpu      time.Duration
	alloc    uint64 // bytes allocated in the measured phase
	gcs      uint32 // GC cycles in the measured phase
	heapLive uint64
	probes   *tally
	warmup   *tally
	disk     int64
	steal    int64 // -1 when unreadable
	checkErr error

	// Traced sessions only: the program's counters summed over the
	// measured segments, and the segments' windows on the tracer's
	// clock.
	counters counters
	windows  [][2]int64
}

// attempted and failed cover every request the session sent.
func (r *sessionResult) attempted() int {
	return r.warmup.attempted + r.measured.attempted + r.probes.attempted
}

func (r *sessionResult) failed() int {
	return r.warmup.failed + r.measured.failed + r.probes.failed
}

// firstErr returns the first failure the session saw.
func (r *sessionResult) firstErr() error {
	for _, t := range []*tally{r.warmup, r.measured, r.probes} {
		if t.firstErr != nil {
			return t.firstErr
		}
	}
	return r.checkErr
}

// runSession restarts the daemon reps times from copies of image (the
// last start is kept), drives the measured phase and the probes, checks
// the answers, shuts the daemon down cleanly and checks the reopen.
func runSession(w workload, s *stream, image, work string, reps int, tr *tracer) (*sessionResult, error) {
	dr := newLoader(tr)
	defer dr.close()
	opts := daemonOptions{}
	if tr != nil {
		opts.wrapMechanism = func(m core.Mechanism) core.Mechanism { return tracedMechanism{m, tr} }
		opts.wrapHandler = tr.wrapHandler
	}
	res := &sessionResult{}
	var d *daemon
	var dir string
	for i := 0; i < reps; i++ {
		dir = filepath.Join(work, fmt.Sprintf("setup%d", i))
		if err := copyDir(image, dir); err != nil {
			return nil, err
		}
		start := time.Now()
		var err error
		if d, err = startDaemon(dir, w, opts); err != nil {
			return nil, err
		}
		if _, err := dr.get(d.base + "/healthz"); err != nil {
			d.stop()
			return nil, err
		}
		res.setups = append(res.setups, time.Since(start))
		if i == reps-1 {
			break
		}
		if err := d.stop(); err != nil {
			return nil, err
		}
		if err := os.RemoveAll(dir); err != nil {
			return nil, err
		}
	}

	streams := make([][]call, len(s.clients))
	for i, ops := range s.clients {
		streams[i] = buildCalls(d.base, ops)
	}
	// The calls carry the ops now; dropping the streams keeps the
	// benchmark's own inputs out of heap_live_mb.
	s.clients = nil
	var reader *call
	if w.leaderReader {
		reader = &buildCalls(d.base, []op{{kind: kindLeaderboard}})[0]
	}
	probes := buildCalls(d.base, s.probes)
	// fill is an untimed leaderboard read made before each batch of
	// leaderboard probes, so they time the cached view the mix's writes
	// would otherwise have invalidated.
	var fill *call
	for _, c := range probes {
		if c.op.kind == kindLeaderboard {
			c.untraced = true
			fill = &c
			break
		}
	}
	clients := len(streams)
	if reader != nil {
		clients++
	}
	res.warmup = warmup(dr, d.base, s.names, clients)

	res.measured, res.probes = &tally{}, &tally{}
	stealOK := true
	for i := 0; i < w.segments; i++ {
		part := make([][]call, len(streams))
		for c, calls := range streams {
			part[c] = calls[i*len(calls)/w.segments : (i+1)*len(calls)/w.segments]
		}
		var c0 counters
		if tr != nil {
			c0 = readCounters(d.reg)
		}
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		st0, ok0 := stealTicks()
		cpu0 := cpuTime()
		start := time.Now()
		t, wall := dr.runClients(part, reader)
		end := time.Now()
		sg := segment{t: t, wall: wall, cpu: cpuTime() - cpu0}
		st1, ok1 := stealTicks()
		runtime.ReadMemStats(&m1)
		sg.steal = st1 - st0
		stealOK = stealOK && ok0 && ok1
		if tr != nil {
			res.counters = res.counters.plus(diff(c0, readCounters(d.reg)))
			res.windows = append(res.windows, [2]int64{tr.at(start), tr.at(end)})
		}
		res.alloc += m1.TotalAlloc - m0.TotalAlloc
		res.gcs += m1.NumGC - m0.NumGC
		res.segs = append(res.segs, sg)
		res.measured.mergeCounts(t)
		res.wall += wall
		res.cpu += sg.cpu
		res.steal += sg.steal

		// This segment's share of the probes, outside its timing.
		pr := probes[i*len(probes)/w.segments : (i+1)*len(probes)/w.segments]
		if fill != nil && len(pr) > 0 {
			dr.do(*fill, res.warmup)
		}
		for _, c := range pr {
			dr.do(c, res.probes)
		}
	}
	if !stealOK {
		res.steal = -1
	}
	// The second collection empties the sync.Pool caches the first one
	// only moves aside, so the live heap does not depend on GC timing.
	var m runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&m)
	res.heapLive = m.HeapAlloc

	want := expect(s, res.measured)
	before, err := dr.get(d.base + "/rewards")
	if err != nil {
		d.stop()
		return nil, err
	}
	res.checkErr = checkRewards(before, want)
	if err := d.stop(); err != nil {
		return nil, err
	}
	if res.disk, err = dirBytes(dir); err != nil {
		return nil, err
	}
	d, err = startDaemon(dir, w, daemonOptions{})
	if err != nil {
		return nil, err
	}
	after, err := dr.get(d.base + "/rewards")
	if serr := d.stop(); err == nil {
		err = serr
	}
	if err != nil {
		return nil, err
	}
	if res.checkErr == nil {
		res.checkErr = checkReopen(before, after)
	}
	return res, os.RemoveAll(dir)
}

// warmup makes warmupReads participant reads on each of n concurrent
// clients.
func warmup(dr *loader, base string, names []string, n int) *tally {
	ops := make([]op, warmupReads)
	for i := range ops {
		ops[i] = op{kind: kindParticipant, name: names[i*len(names)/len(ops)]}
	}
	calls := buildCalls(base, ops)
	for i := range calls {
		calls[i].untraced = true
	}
	tallies := make([]tally, n)
	var wg sync.WaitGroup
	for i := range tallies {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, c := range calls {
				dr.do(c, &tallies[i])
			}
		}()
	}
	wg.Wait()
	total := &tally{}
	for i := range tallies {
		total.merge(&tallies[i])
	}
	return total
}

// counters are the program's own metrics the per-layer report reads.
type counters struct {
	checkpoints          uint64
	cpSum                float64
	cpCount              uint64
	batchSum             float64
	batchCount           uint64
	commitSum            float64
	commitCount          uint64
	appendBytes, syncs   uint64
	cacheHits, cacheMiss uint64
}

func (a counters) plus(b counters) counters {
	return counters{
		checkpoints: a.checkpoints + b.checkpoints,
		cpSum:       a.cpSum + b.cpSum, cpCount: a.cpCount + b.cpCount,
		batchSum: a.batchSum + b.batchSum, batchCount: a.batchCount + b.batchCount,
		commitSum: a.commitSum + b.commitSum, commitCount: a.commitCount + b.commitCount,
		appendBytes: a.appendBytes + b.appendBytes, syncs: a.syncs + b.syncs,
		cacheHits: a.cacheHits + b.cacheHits, cacheMiss: a.cacheMiss + b.cacheMiss,
	}
}

func readCounters(reg *obs.Registry) counters {
	id := []string{"campaign", store.DefaultID}
	cp := reg.Histogram("itree_checkpoint_seconds", "", nil)
	batch := reg.Histogram("itree_ingest_batch_size", "", nil, id...)
	commit := reg.Histogram("itree_ingest_commit_seconds", "", nil, id...)
	return counters{
		checkpoints: reg.Counter("itree_checkpoints_total", "").Value(),
		cpSum:       cp.Sum(), cpCount: cp.Count(),
		batchSum: batch.Sum(), batchCount: batch.Count(),
		commitSum: commit.Sum(), commitCount: commit.Count(),
		appendBytes: obs.Default().Counter("itree_journal_append_bytes_total", "").Value(),
		syncs:       obs.Default().Counter("itree_journal_syncs_total", "").Value(),
		cacheHits:   reg.Counter("itree_rewards_cache_hits_total", "", id...).Value(),
		cacheMiss:   reg.Counter("itree_rewards_cache_misses_total", "", id...).Value(),
	}
}
