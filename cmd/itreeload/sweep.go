package main

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"incentivetree/internal/core"
	"incentivetree/internal/experiments"
	"incentivetree/internal/journal"
	"incentivetree/internal/server"
)

// runSweep implements -tree-size-sweep: an in-process scaling probe of
// the arena tree and binary codec, no daemon required. For each
// population size it builds a journalled deployment, drives
// join+contribute commits through the write path, and reports
//
//   - commit latency percentiles (journal append + arena mutation),
//   - resident bytes of the live state (heap delta after GC),
//   - journal and snapshot sizes on disk,
//   - cold recovery time from the journal and from a snapshot.
//
// Sizes are swept in order so the 10^6 point amortizes the process
// warm-up of the smaller ones. The numbers land on stdout next to the
// BENCH_<n>.json trail; the matching go-bench points are
// BenchmarkRecovery and BenchmarkSnapshotCodec in the root suite.
func runSweep(sizes []int, seed int64, stdout io.Writer) error {
	mech, err := experiments.ByName(core.DefaultParams(), "tdrm")
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "itreeload: tree size sweep, sizes %v\n", sizes)
	fmt.Fprintf(stdout, "%12s %12s %12s %12s %14s %12s %12s %14s %14s\n",
		"participants", "commit p50", "commit p99", "heap bytes",
		"journal bytes", "snap bytes", "snap encode", "recover(jnl)", "recover(snap)")
	for _, n := range sizes {
		if err := sweepOne(n, mech, seed, stdout); err != nil {
			return fmt.Errorf("sweep %d: %w", n, err)
		}
	}
	return nil
}

func sweepOne(n int, mech core.Mechanism, seed int64, stdout io.Writer) error {
	dir, err := os.MkdirTemp("", "itree-sweep-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	logPath := filepath.Join(dir, "journal.log")
	fw, err := journal.OpenFile(logPath, journal.SyncOS, 0)
	if err != nil {
		return err
	}
	defer fw.Close()

	runtime.GC()
	var base runtime.MemStats
	runtime.ReadMemStats(&base)

	srv := server.New(mech, server.WithJournal(journal.NewWriter(fw, 1)))
	rng := rand.New(rand.NewSource(seed))
	names := make([]string, 0, n)
	// Sample commit latency in batches: single commits are faster than
	// the clock's granularity, so each sample is the per-commit mean of
	// sweepBatch consecutive participants (2 commits each).
	const sweepBatch = 64
	samples := make([]time.Duration, 0, n/sweepBatch+1)
	start := time.Now()
	batchStart := start
	for i := 0; i < n; i++ {
		name := "p" + strconv.Itoa(i)
		sponsor := ""
		if len(names) > 0 {
			sponsor = names[rng.Intn(len(names))]
		}
		if err := srv.Join(name, sponsor); err != nil {
			return err
		}
		if err := srv.Contribute(name, 0.5+rng.Float64()*4); err != nil {
			return err
		}
		names = append(names, name)
		if i%sweepBatch == sweepBatch-1 {
			now := time.Now()
			samples = append(samples, now.Sub(batchStart)/(2*sweepBatch))
			batchStart = now
		}
	}
	if len(samples) == 0 {
		samples = append(samples, time.Since(start)/time.Duration(2*n))
	}
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })

	runtime.GC()
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	heap := int64(after.HeapAlloc) - int64(base.HeapAlloc)

	if err := fw.Sync(); err != nil {
		return err
	}
	journalBytes := fw.Size()

	snap := srv.SnapshotAt(nil)
	encStart := time.Now()
	snapData, err := server.EncodeSnapshotBinary(&snap)
	if err != nil {
		return err
	}
	encTime := time.Since(encStart)

	// Cold recovery from the journal: decode every record and replay.
	logData, err := os.ReadFile(logPath)
	if err != nil {
		return err
	}
	jnlStart := time.Now()
	events, err := journal.Read(bytes.NewReader(logData))
	if err != nil {
		return err
	}
	rec1 := server.New(mech)
	if err := server.Recover(rec1, nil, events); err != nil {
		return err
	}
	jnlTime := time.Since(jnlStart)

	// Cold recovery from the snapshot: decode and adopt, no replay.
	snapStart := time.Now()
	decoded, err := server.DecodeSnapshot(snapData)
	if err != nil {
		return err
	}
	rec2 := server.New(mech)
	if err := server.Recover(rec2, decoded, nil); err != nil {
		return err
	}
	snapTime := time.Since(snapStart)
	if rec1.LastSeq() != srv.LastSeq() || rec2.LastSeq() != srv.LastSeq() {
		return fmt.Errorf("recovery diverged: %d/%d vs %d", rec1.LastSeq(), rec2.LastSeq(), srv.LastSeq())
	}

	fmt.Fprintf(stdout, "%12d %12s %12s %12d %14d %12d %12s %14s %14s\n",
		n, sweepPercentile(samples, 0.50), sweepPercentile(samples, 0.99), heap,
		journalBytes, len(snapData), encTime.Round(time.Microsecond),
		jnlTime.Round(time.Microsecond), snapTime.Round(time.Microsecond))
	return nil
}

// sweepPercentile is percentile without the HTTP-scale 10µs display
// rounding — commit latencies are sub-microsecond territory.
func sweepPercentile(sorted []time.Duration, q float64) time.Duration {
	idx := int(q*float64(len(sorted))+0.5) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}

// parseSweepSizes parses the -sweep-sizes list.
func parseSweepSizes(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		n, err := strconv.Atoi(part)
		if err != nil || n < 1 {
			return nil, fmt.Errorf("-sweep-sizes: bad size %q", part)
		}
		out = append(out, n)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("-sweep-sizes is empty")
	}
	return out, nil
}
