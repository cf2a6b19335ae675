package audit_test

import (
	"math/rand"
	"testing"

	"incentivetree/internal/audit"
	"incentivetree/internal/journal"
	"incentivetree/internal/server"
	"incentivetree/internal/treegen"
)

// BenchmarkAuditScan times one audit scan of a live server:
//   - chain-40k/first-scan: a fresh auditor's first scan of a tree that
//     is one chain of 40,000 participants;
//   - honest-10k/after-100-contributes: a scan of an honest
//     treegen.Mix population of 10^4 participants, after 100
//     contributions since the previous scan.
func BenchmarkAuditScan(b *testing.B) {
	b.Run("chain-40k/first-scan", func(b *testing.B) {
		s, _ := newAuditedServer(b, audit.Config{})
		if err := server.Recover(s, &journal.Snapshot{Tree: treegen.ChainTree(40000, 1)}, nil); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			audit.New(audit.Config{}, s).Scan()
		}
	})
	b.Run("honest-10k/after-100-contributes", func(b *testing.B) {
		sc := treegen.Mix(rand.New(rand.NewSource(1)), treegen.ScenarioConfig{Honest: 10000})
		s, a := newAuditedServer(b, audit.Config{})
		applyScenario(b, s, sc)
		a.Scan()
		rng := rand.New(rand.NewSource(2))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			for j := 0; j < 100; j++ {
				if err := s.Contribute(sc.Honest[rng.Intn(len(sc.Honest))], 0.1+rng.Float64()); err != nil {
					b.Fatal(err)
				}
			}
			b.StartTimer()
			a.Scan()
		}
	})
}
