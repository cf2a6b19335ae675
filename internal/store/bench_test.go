package store

import (
	"fmt"
	"sync/atomic"
	"testing"

	"incentivetree/internal/core"
	"incentivetree/internal/experiments"
)

// BenchmarkStoreParallelCampaigns measures concurrent writes spread
// across many campaigns. Each campaign has its own server lock, so the
// only shared state on the hot path is the campaign lookup and its
// lock stripes.
func BenchmarkStoreParallelCampaigns(b *testing.B) {
	const campaigns = 16
	st, err := Open(Config{
		CheckpointInterval: -1,
		CheckpointBytes:    -1,
		NewMechanism: func(name string, p core.Params) (core.Mechanism, error) {
			return experiments.ByName(p, name)
		},
	})
	if err != nil {
		b.Fatal(err)
	}
	defer st.Close()
	ids := make([]string, campaigns)
	for i := range ids {
		ids[i] = fmt.Sprintf("bench-%02d", i)
		c, err := st.Create(Meta{ID: ids[i], Mechanism: "geometric"})
		if err != nil {
			b.Fatal(err)
		}
		if err := c.Server().Join("seed", ""); err != nil {
			b.Fatal(err)
		}
	}
	var next atomic.Uint64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		// Each goroutine writes to its own campaign so server
		// locks never contend; lookup striping is what's measured.
		id := ids[int(next.Add(1))%campaigns]
		for pb.Next() {
			c, ok := st.Get(id)
			if !ok {
				b.Fatal("campaign vanished")
			}
			if err := c.Server().Contribute("seed", 1); err != nil {
				b.Fatal(err)
			}
		}
	})
}
