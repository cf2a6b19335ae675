package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"incentivetree/internal/core"
	"incentivetree/internal/experiments"
	"incentivetree/internal/journal"
	"incentivetree/internal/server"
	"incentivetree/internal/store"
)

// offlineReps is how many times the layer timings on the prepared files
// repeat; each reports its median.
const offlineReps = 5

// maxAppendBatches bounds the journal re-append to keep the traced run
// short; the mean over that many fsyncs is already steady.
const maxAppendBatches = 4000

// imageTimings times journal.Read, server.DecodeSnapshot and
// server.Recover on the prepared image's files: the three steps of a
// restart.
func imageTimings(image string, w workload) (read, decode, replay time.Duration, err error) {
	dir := filepath.Join(image, "campaigns", store.DefaultID)
	snapData, err := os.ReadFile(filepath.Join(dir, "snapshot.bin"))
	if err != nil {
		return 0, 0, 0, err
	}
	logData, err := os.ReadFile(filepath.Join(dir, "journal.log"))
	if err != nil {
		return 0, 0, 0, err
	}
	m, err := experiments.ByName(core.DefaultParams(), w.mechanism)
	if err != nil {
		return 0, 0, 0, err
	}
	var reads, decodes, replays []time.Duration
	for i := 0; i < offlineReps; i++ {
		start := time.Now()
		events, err := journal.Read(bytes.NewReader(logData))
		if err != nil {
			return 0, 0, 0, err
		}
		reads = append(reads, time.Since(start))
		start = time.Now()
		snap, err := server.DecodeSnapshot(snapData)
		if err != nil {
			return 0, 0, 0, err
		}
		decodes = append(decodes, time.Since(start))
		start = time.Now()
		if err := server.Recover(server.New(m), snap, events); err != nil {
			return 0, 0, 0, err
		}
		replays = append(replays, time.Since(start))
	}
	return percentile(reads, 0.5), percentile(decodes, 0.5), percentile(replays, 0.5), nil
}

// appendTiming re-appends a run's acknowledged writes through
// journal.Writer.AppendBatch to a fresh file in dir under SyncAlways,
// in batches as many and as large as the run's own, and returns the
// mean time of one AppendBatch.
func appendTiming(dir string, acked []op, batches int) (time.Duration, error) {
	if len(acked) == 0 || batches <= 0 {
		return 0, nil
	}
	events := make([]journal.Event, len(acked))
	for i, o := range acked {
		switch o.kind {
		case kindJoin:
			events[i] = journal.Event{Kind: journal.KindJoin, Name: o.name, Sponsor: o.sponsor}
		default:
			events[i] = journal.Event{Kind: journal.KindContribute, Name: o.name, Amount: o.amount}
		}
	}
	fw, err := journal.OpenFile(filepath.Join(dir, "append.log"), journal.SyncAlways, 0)
	if err != nil {
		return 0, err
	}
	jw := journal.NewWriterMode(fw, 1, journal.ModeBinary)
	n := min(batches, maxAppendBatches)
	var total time.Duration
	next := 0
	for b := 0; b < n; b++ {
		// Batch b of the run's batches holds len/batches events, the
		// first len%batches of them one more.
		size := len(events) / batches
		if b < len(events)%batches {
			size++
		}
		start := time.Now()
		if _, err := jw.AppendBatch(events[next : next+size]); err != nil {
			fw.Close()
			return 0, err
		}
		total += time.Since(start)
		next += size
	}
	if err := fw.Close(); err != nil {
		return 0, err
	}
	return total / time.Duration(n), nil
}

// layerStats aggregates a traced session's spans.
type layerStats struct {
	serveSum   [numKinds]time.Duration // every traced request, probes included
	serveN     [numKinds]int
	serveSelf  [numKinds]time.Duration // serve time outside reward evaluations
	clientSum  [numKinds]time.Duration
	missSum    time.Duration
	missN      int
	rewards    [2]time.Duration // measured segments: [read, commit]
	rewardsN   [2]int
	measServe  time.Duration // measured segments
	measClient time.Duration // measured segments, requests with a serve span
}

// inWindows reports whether t falls in one of the windows.
func inWindows(t int64, windows [][2]int64) bool {
	for _, w := range windows {
		if t >= w[0] && t <= w[1] {
			return true
		}
	}
	return false
}

func aggregate(spans []span, windows [][2]int64) layerStats {
	var ls layerStats
	kinds := map[string]opKind{}
	for k := opKind(0); k < numKinds; k++ {
		kinds[k.String()] = k
	}
	clients := map[uint64]span{}
	evalIn := map[uint64]time.Duration{}
	for _, s := range spans {
		switch {
		case s.Name == "core.rewards":
			evalIn[s.Parent] += s.dur()
			if inWindows(s.Start, windows) {
				i := 1
				if s.Note == "read" {
					i = 0
				}
				ls.rewards[i] += s.dur()
				ls.rewardsN[i]++
			}
		case len(s.Name) > 7 && s.Name[:7] == "client.":
			clients[s.ID] = s
		}
	}
	for _, s := range spans {
		const prefix = "store.serve."
		if len(s.Name) <= len(prefix) || s.Name[:len(prefix)] != prefix || s.Req == 0 {
			continue
		}
		k, ok := kinds[s.Name[len(prefix):]]
		if !ok {
			continue
		}
		c, ok := clients[s.Req]
		if !ok {
			continue
		}
		ls.serveSum[k] += s.dur()
		ls.serveSelf[k] += s.dur() - evalIn[s.ID]
		ls.clientSum[k] += c.dur()
		ls.serveN[k]++
		if s.Note == "miss" {
			ls.missSum += s.dur()
			ls.missN++
		}
		if inWindows(c.Start, windows) {
			ls.measServe += s.dur()
			ls.measClient += c.dur()
		}
	}
	return ls
}

func meanMs(sum time.Duration, n int) float64 {
	if n == 0 {
		return 0
	}
	return ms(sum) / float64(n)
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// perLayer derives the per-layer metrics of a traced session, and the
// report lines that go with them.
func perLayer(r *sessionResult, ls layerStats, read, decode, replay, appendMean time.Duration) (map[string]metric, []string) {
	ops := float64(r.measured.completed())
	writes := float64(r.measured.writes)
	d := r.counters
	m := map[string]metric{}
	put := func(name, unit string, v float64) { m[name] = metric{Value: v, Unit: unit} }
	for _, k := range []opKind{kindContribute, kindParticipant, kindLeaderboard} {
		put("store.serve_ms."+k.String(), "ms", meanMs(ls.serveSum[k], ls.serveN[k]))
	}
	put("store.outside_share", "ratio", 1-ratio(float64(ls.measServe), float64(ls.measClient)))
	put("store.checkpoints", "count", float64(d.checkpoints))
	put("store.checkpoint_ms", "ms", 1e3*ratio(d.cpSum, float64(d.cpCount)))
	put("ingest.ops_per_batch", "ops", ratio(d.batchSum, float64(d.batchCount)))
	commitMs := 1e3 * ratio(d.commitSum, float64(d.commitCount))
	put("ingest.commit_ms", "ms", commitMs)
	put("ingest.around_commit_ms", "ms", meanMs(ls.serveSum[kindContribute], ls.serveN[kindContribute])-commitMs)
	put("journal.bytes_per_op", "B", ratio(float64(d.appendBytes), writes))
	put("journal.syncs_per_op", "count", ratio(float64(d.syncs), writes))
	put("journal.append_us", "us", float64(appendMean)/1e3)
	put("journal.read_ms", "ms", ms(read))
	put("server.snapshot_decode_ms", "ms", ms(decode))
	put("server.replay_ms", "ms", ms(replay))
	evals := ls.rewardsN[0] + ls.rewardsN[1]
	evalSum := ls.rewards[0] + ls.rewards[1]
	put("core.rewards_per_op", "count", ratio(float64(evals), ops))
	put("core.rewards_ms", "ms", meanMs(evalSum, evals))
	put("core.rewards_share", "ratio", ratio(float64(evalSum), float64(ls.measServe)))
	put("query.hit_ratio", "ratio", ratio(float64(d.cacheHits), float64(d.cacheHits+d.cacheMiss)))
	put("query.miss_ms", "ms", meanMs(ls.missSum, ls.missN))
	put("runtime.alloc_kb_per_op", "KB", ratio(float64(r.alloc)/1e3, ops))
	put("runtime.gc_per_kop", "count", ratio(1e3*float64(r.gcs), ops))

	lines := []string{
		"layer breakdown (mean ms per request; self = span minus its child spans):",
		fmt.Sprintf("  %-12s %7s %9s %9s %11s %11s %13s", "kind", "n", "client", "serve", "serve_self", "outside", "rewards_read"),
	}
	for _, k := range []opKind{kindJoin, kindContribute, kindParticipant, kindLeaderboard} {
		n := ls.serveN[k]
		if n == 0 {
			continue
		}
		lines = append(lines, fmt.Sprintf("  %-12s %7d %9.4f %9.4f %11.4f %11.4f %13.4f", k, n,
			meanMs(ls.clientSum[k], n), meanMs(ls.serveSum[k], n), meanMs(ls.serveSelf[k], n),
			meanMs(ls.clientSum[k]-ls.serveSum[k], n), meanMs(ls.serveSum[k]-ls.serveSelf[k], n)))
	}
	lines = append(lines,
		fmt.Sprintf("  core.rewards in the measured phase: %d on request handlers (mean %.4f ms), %d on the ingest committer (mean %.4f ms)",
			ls.rewardsN[0], meanMs(ls.rewards[0], ls.rewardsN[0]), ls.rewardsN[1], meanMs(ls.rewards[1], ls.rewardsN[1])),
		fmt.Sprintf("  reward cache: %d hits, %d misses in the measured phase; leaderboard misses serve in %.4f ms on average",
			d.cacheHits, d.cacheMiss, meanMs(ls.missSum, ls.missN)),
	)
	return m, lines
}

func diff(a, b counters) counters {
	return counters{
		checkpoints: b.checkpoints - a.checkpoints,
		cpSum:       b.cpSum - a.cpSum, cpCount: b.cpCount - a.cpCount,
		batchSum: b.batchSum - a.batchSum, batchCount: b.batchCount - a.batchCount,
		commitSum: b.commitSum - a.commitSum, commitCount: b.commitCount - a.commitCount,
		appendBytes: b.appendBytes - a.appendBytes, syncs: b.syncs - a.syncs,
		cacheHits: b.cacheHits - a.cacheHits, cacheMiss: b.cacheMiss - a.cacheMiss,
	}
}
