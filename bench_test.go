// Benchmarks for every reproduced experiment (E01-E12, one bench each —
// see DESIGN.md §4) plus throughput benchmarks for the mechanisms' hot
// path (reward evaluation) and the supporting substrates.
//
// Run with:
//
//	go test -bench=. -benchmem
package incentivetree_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"incentivetree/internal/core"
	"incentivetree/internal/experiments"
	"incentivetree/internal/geometric"
	"incentivetree/internal/journal"
	"incentivetree/internal/obs"
	"incentivetree/internal/server"
	"incentivetree/internal/sim"
	"incentivetree/internal/sybil"
	"incentivetree/internal/tdrm"
	"incentivetree/internal/tree"
	"incentivetree/internal/treegen"
)

// benchExperiment runs one DESIGN.md experiment per iteration and fails
// the benchmark if the reproduction stops matching the paper.
func benchExperiment(b *testing.B, run func() (experiments.Result, error)) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		res, err := run()
		if err != nil {
			b.Fatal(err)
		}
		if !res.OK {
			b.Fatalf("%s no longer matches the paper:\n%s", res.ID, res.Render())
		}
	}
}

func BenchmarkE01PropertyMatrix(b *testing.B) {
	benchExperiment(b, experiments.E01PropertyMatrix)
}

func BenchmarkE02Impossibility(b *testing.B) {
	benchExperiment(b, experiments.E02Impossibility)
}

func BenchmarkE03TDRMCounterexample(b *testing.B) {
	benchExperiment(b, experiments.E03TDRMCounterexample)
}

func BenchmarkE04GeometricChainAttack(b *testing.B) {
	benchExperiment(b, experiments.E04GeometricChainAttack)
}

func BenchmarkE05Fig1Scenarios(b *testing.B) {
	benchExperiment(b, experiments.E05Fig1Scenarios)
}

func BenchmarkE06RCTTransform(b *testing.B) {
	benchExperiment(b, experiments.E06RCTTransform)
}

func BenchmarkE07EpsilonChainOptimality(b *testing.B) {
	benchExperiment(b, experiments.E07EpsilonChainOptimality)
}

func BenchmarkE08CDRMConditions(b *testing.B) {
	benchExperiment(b, experiments.E08CDRMConditions)
}

func BenchmarkE09BudgetAudit(b *testing.B) {
	benchExperiment(b, experiments.E09BudgetAudit)
}

func BenchmarkE10PachiraSLViolation(b *testing.B) {
	benchExperiment(b, experiments.E10PachiraSLViolation)
}

func BenchmarkE11RewardScaling(b *testing.B) {
	benchExperiment(b, experiments.E11RewardScaling)
}

func BenchmarkE12GrowthSimulation(b *testing.B) {
	benchExperiment(b, experiments.E12GrowthSimulation)
}

func BenchmarkX01EmekCSIFailure(b *testing.B) {
	benchExperiment(b, experiments.X01EmekCSIFailure)
}

func BenchmarkX02TDRMMuAblation(b *testing.B) {
	benchExperiment(b, experiments.X02TDRMMuAblation)
}

func BenchmarkX03GeometricDecayAblation(b *testing.B) {
	benchExperiment(b, experiments.X03GeometricDecayAblation)
}

func BenchmarkX04SearchConvergence(b *testing.B) {
	benchExperiment(b, experiments.X04SearchConvergence)
}

func BenchmarkX05EquilibriumContribution(b *testing.B) {
	benchExperiment(b, experiments.X05EquilibriumContribution)
}

func BenchmarkX06RewardFlow(b *testing.B) {
	benchExperiment(b, experiments.X06RewardFlow)
}

// benchTree builds a deterministic mixed-shape workload tree.
func benchTree(n int) *tree.Tree {
	r := rand.New(rand.NewSource(int64(n)))
	return treegen.Random(r, treegen.Config{
		N:       n,
		Contrib: treegen.Uniform(0.1, 5),
		Attach:  treegen.PreferentialAttach,
	})
}

// BenchmarkRewards measures reward-evaluation throughput for every suite
// mechanism across tree sizes — the hot path of any deployment.
func BenchmarkRewards(b *testing.B) {
	mechs, err := experiments.Suite(core.DefaultParams())
	if err != nil {
		b.Fatal(err)
	}
	for _, n := range []int{100, 1000, 10000} {
		t := benchTree(n)
		for _, m := range mechs {
			b.Run(fmt.Sprintf("%s/n=%d", m.Name(), n), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := m.Rewards(t); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkRCTTransformSize measures the TDRM reward computation tree
// construction across sizes and contribution scales (larger contributions
// mean longer chains).
func BenchmarkRCTTransformSize(b *testing.B) {
	for _, n := range []int{100, 1000, 10000} {
		t := benchTree(n)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := tdrm.Transform(t, 1); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSybilSearch measures the bounded best-attack enumeration used
// by the USA/UGSA checkers.
func BenchmarkSybilSearch(b *testing.B) {
	m, err := tdrm.Default(core.DefaultParams())
	if err != nil {
		b.Fatal(err)
	}
	s := sybil.Scenario{
		Base:         tree.FromSpecs(tree.Spec{C: 1}),
		Parent:       1,
		Contribution: 2,
		ChildTrees:   []tree.Spec{{C: 1}, {C: 1.5}},
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := sybil.BestRewardAttack(m, s, sybil.DefaultSearch()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSybilSearchWorkers measures the sharded best-attack search at
// fixed worker counts (1 is the serial legacy path; results are
// identical at every setting).
func BenchmarkSybilSearchWorkers(b *testing.B) {
	m, err := tdrm.Default(core.DefaultParams())
	if err != nil {
		b.Fatal(err)
	}
	s := sybil.Scenario{
		Base:         tree.FromSpecs(tree.Spec{C: 1}),
		Parent:       1,
		Contribution: 2,
		ChildTrees:   []tree.Spec{{C: 1}, {C: 1.5}},
	}
	for _, workers := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			o := sybil.DefaultSearch()
			o.Workers = workers
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := sybil.BestRewardAttack(m, s, o); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkGrowthSimulation measures one full campaign simulation.
func BenchmarkGrowthSimulation(b *testing.B) {
	m, err := tdrm.Default(core.DefaultParams())
	if err != nil {
		b.Fatal(err)
	}
	cfg := sim.DefaultConfig(1)
	cfg.SybilFraction = 0.3
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := sim.Run(m, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkInstrumentedRewards measures the observability tax on the
// rewards hot path: the same mechanism evaluation with and without the
// obs timed wrapper (experiments.Instrumented). The instrumented/bare
// ns-per-op ratio is the overhead the ISSUE demands stays under ~5% —
// two clock reads plus three atomic updates amortized over an O(n)
// tree evaluation.
func BenchmarkInstrumentedRewards(b *testing.B) {
	p := core.DefaultParams()
	geo, err := geometric.Default(p)
	if err != nil {
		b.Fatal(err)
	}
	td, err := tdrm.Default(p)
	if err != nil {
		b.Fatal(err)
	}
	for _, m := range []core.Mechanism{geo, td} {
		for _, n := range []int{100, 1000} {
			t := benchTree(n)
			im := experiments.Instrumented(m, obs.NewRegistry())
			b.Run(fmt.Sprintf("bare/%s/n=%d", m.Name(), n), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := m.Rewards(t); err != nil {
						b.Fatal(err)
					}
				}
			})
			b.Run(fmt.Sprintf("instrumented/%s/n=%d", m.Name(), n), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := im.Rewards(t); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkObsPrimitives measures the raw cost of one metric recording
// — the unit the middleware and engine instrumentation pay per event.
func BenchmarkObsPrimitives(b *testing.B) {
	reg := obs.NewRegistry()
	c := reg.Counter("bench_total", "")
	h := reg.Histogram("bench_seconds", "", nil)
	b.Run("CounterInc", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			c.Inc()
		}
	})
	b.Run("HistogramObserve", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			h.Observe(float64(i%1000) * 1e-6)
		}
	})
	b.Run("HistogramObserveTimed", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			start := time.Now()
			h.Observe(time.Since(start).Seconds())
		}
	})
	b.Run("RegistryLookup", func(b *testing.B) {
		// The price of not caching the handle (what Middleware pays
		// per request).
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			reg.Counter("bench_total", "").Inc()
		}
	})
}

// BenchmarkIngestBatchSizes measures the group-commit write path under
// contention at different batch caps, with a real fsync-per-commit
// journal (journal.SyncAlways) so the cost being amortized is the true
// one. batch=1 is the unbatched baseline: one fsync, one lock
// acquisition, and one reward recompute per operation; larger caps
// spread those over whole batches. ns/op here is per submitted
// contribution, end to end through the write queue.
func BenchmarkIngestBatchSizes(b *testing.B) {
	const (
		population = 64
		workers    = 32
	)
	for _, batchMax := range []int{1, 16, 256} {
		b.Run(fmt.Sprintf("batch=%d", batchMax), func(b *testing.B) {
			m, err := geometric.Default(core.DefaultParams())
			if err != nil {
				b.Fatal(err)
			}
			fw, err := journal.OpenFile(filepath.Join(b.TempDir(), "journal.log"), journal.SyncAlways, 0)
			if err != nil {
				b.Fatal(err)
			}
			s := server.New(m,
				server.WithJournal(journal.NewWriter(fw, 1)),
				server.WithGroupCommit(batchMax, 8192))
			defer fw.Close()
			for i := 0; i < population; i++ {
				if err := s.Join(fmt.Sprintf("p%03d", i), ""); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			var (
				next   atomic.Int64
				failed atomic.Int64
				wg     sync.WaitGroup
			)
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					ctx := context.Background()
					for {
						i := next.Add(1)
						if i > int64(b.N) {
							return
						}
						name := fmt.Sprintf("p%03d", i%population)
						if _, err := s.SubmitContribute(ctx, name, 1); err != nil {
							failed.Add(1)
						}
					}
				}()
			}
			wg.Wait()
			b.StopTimer()
			if n := failed.Load(); n > 0 {
				b.Fatalf("%d submits failed", n)
			}
		})
	}
}

// BenchmarkTreeOps measures the substrate primitives the mechanisms are
// built from.
func BenchmarkTreeOps(b *testing.B) {
	t := benchTree(10000)
	b.Run("SubtreeSums", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_ = t.SubtreeSums()
		}
	})
	b.Run("Clone", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_ = t.Clone()
		}
	})
	b.Run("Walk", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			n := 0
			t.Walk(tree.Root, func(tree.NodeID) bool { n++; return true })
		}
	})
	b.Run("MarshalJSON", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := json.Marshal(t); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("CloneInto", func(b *testing.B) {
		var dst tree.Tree
		t.CloneInto(&dst) // warm the backing arrays; steady state is 0 allocs
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			t.CloneInto(&dst)
		}
	})
	b.Run("ResetTo", func(b *testing.B) {
		sc := t.Clone()
		mark := sc.Mark()
		for k := 0; k < 8; k++ { // warm the arena past the mark
			sc.MustAdd(tree.Root, 1)
		}
		if err := sc.ResetTo(mark); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for k := 0; k < 8; k++ {
				sc.MustAdd(tree.Root, 1)
			}
			if err := sc.ResetTo(mark); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// benchCodecSizes returns the campaign sizes the snapshot-codec and
// recovery benchmarks run at: 10^4 always, plus the 10^6 acceptance
// point when ITREE_BENCH_LARGE is set (a million-participant fixture is
// too slow for the 1x CI bench smoke).
func benchCodecSizes() []int {
	sizes := []int{10_000}
	if os.Getenv("ITREE_BENCH_LARGE") != "" {
		sizes = append(sizes, 1_000_000)
	}
	return sizes
}

// BenchmarkSnapshotCodec contrasts the JSON debug/export snapshot with
// the binary checkpoint format (DESIGN.md §8) on encode and decode.
func BenchmarkSnapshotCodec(b *testing.B) {
	for _, n := range benchCodecSizes() {
		snap := &journal.Snapshot{
			LastSeq:     uint64(n),
			Tree:        benchTree(n),
			Quarantined: []string{"p3", "p7"},
		}
		jsonData, err := json.Marshal(snap)
		if err != nil {
			b.Fatal(err)
		}
		binData, err := journal.EncodeSnapshot(snap)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("encode/json/n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := json.Marshal(snap); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("encode/binary/n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := journal.EncodeSnapshot(snap); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("decode/json/n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				var decoded journal.Snapshot
				if err := json.Unmarshal(jsonData, &decoded); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("decode/binary/n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := journal.DecodeSnapshot(binData); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkRecovery measures cold campaign recovery: full journal
// replay vs snapshot adoption. The n=1000000 points
// (ITREE_BENCH_LARGE=1) are the large-scale recovery numbers.
func BenchmarkRecovery(b *testing.B) {
	m, err := tdrm.Default(core.DefaultParams())
	if err != nil {
		b.Fatal(err)
	}
	for _, n := range benchCodecSizes() {
		var log bytes.Buffer
		srv := server.New(m, server.WithJournal(journal.NewWriter(&log, 1)))
		rng := rand.New(rand.NewSource(int64(n)))
		names := make([]string, 0, n)
		for i := 0; i < n; i++ {
			name := fmt.Sprintf("p%d", i)
			sponsor := ""
			if len(names) > 0 {
				sponsor = names[rng.Intn(len(names))]
			}
			if err := srv.Join(name, sponsor); err != nil {
				b.Fatal(err)
			}
			if err := srv.Contribute(name, 0.5+rng.Float64()*4); err != nil {
				b.Fatal(err)
			}
			names = append(names, name)
		}
		snap := srv.SnapshotAt(nil)
		snapData, err := journal.EncodeSnapshot(&snap)
		if err != nil {
			b.Fatal(err)
		}
		logData := log.Bytes()
		b.Run(fmt.Sprintf("journal/binary/n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				events, err := journal.Read(bytes.NewReader(logData))
				if err != nil {
					b.Fatal(err)
				}
				rec := server.New(m)
				if err := server.Recover(rec, nil, events); err != nil {
					b.Fatal(err)
				}
				if rec.LastSeq() != srv.LastSeq() {
					b.Fatalf("replay recovered seq %d, want %d", rec.LastSeq(), srv.LastSeq())
				}
			}
		})
		b.Run(fmt.Sprintf("snapshot/binary/n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				decoded, err := journal.DecodeSnapshot(snapData)
				if err != nil {
					b.Fatal(err)
				}
				rec := server.New(m)
				if err := server.Recover(rec, decoded, nil); err != nil {
					b.Fatal(err)
				}
				if rec.LastSeq() != srv.LastSeq() {
					b.Fatalf("snapshot recovered seq %d, want %d", rec.LastSeq(), srv.LastSeq())
				}
			}
		})
	}
}
