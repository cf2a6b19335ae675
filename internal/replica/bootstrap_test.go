package replica

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"

	"incentivetree/internal/core"
	"incentivetree/internal/geometric"
	"incentivetree/internal/journal"
	"incentivetree/internal/server"
	"incentivetree/internal/tree"
)

// adoptTarget adopts a bootstrap the way a follower-mode store adopts a
// new campaign: a fresh deployment restored from the snapshot.
type adoptTarget struct{ mech core.Mechanism }

func (a adoptTarget) Adopt(_ Meta, snap journal.Snapshot) (Applier, error) {
	s := server.New(a.mech)
	return s, s.RestoreState(snap)
}

func (adoptTarget) Drop(string) error { return nil }

// countingTarget is an adoptTarget that counts adoptions.
type countingTarget struct {
	adoptTarget
	adopted int
}

func (c *countingTarget) Adopt(meta Meta, snap journal.Snapshot) (Applier, error) {
	c.adopted++
	return c.adoptTarget.Adopt(meta, snap)
}

// TestBootstrapRefusesCorruptSnapshot: the snapshot codec's CRC covers
// the whole bootstrap body, so one flipped byte in transit is refused
// and nothing is adopted; the intact body bootstraps.
func TestBootstrapRefusesCorruptSnapshot(t *testing.T) {
	mech, err := geometric.Default(core.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	primary := bootstrapPrimary(t, mech, 100)
	flipping := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		resp, err := http.Get(primary.URL + r.URL.Path)
		if err != nil {
			t.Error(err)
			return
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Error(err)
			return
		}
		body[len(body)/2] ^= 0x40
		for k, v := range resp.Header {
			w.Header()[k] = v
		}
		w.WriteHeader(resp.StatusCode)
		w.Write(body)
	}))
	defer flipping.Close()

	target := &countingTarget{adoptTarget: adoptTarget{mech}}
	m, err := NewManager(Options{Primary: flipping.URL, Target: target})
	if err != nil {
		t.Fatal(err)
	}
	tl := &tail{id: "bench"}
	err = m.bootstrap(context.Background(), tl)
	if !errors.Is(err, journal.ErrSnapshotCorrupt) || !strings.Contains(err.Error(), "CRC") {
		t.Fatalf("bootstrap from a flipped body = %v, want a CRC refusal", err)
	}
	if target.adopted != 0 || tl.synced.Load() {
		t.Fatalf("flipped body adopted (%d adoptions, synced %v)", target.adopted, tl.synced.Load())
	}

	m, err = NewManager(Options{Primary: primary.URL, Target: target})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.bootstrap(context.Background(), tl); err != nil {
		t.Fatal(err)
	}
	if target.adopted != 1 || !tl.synced.Load() || tl.applied.Load() != 200 {
		t.Fatalf("intact bootstrap: %d adoptions, synced %v, seq %d", target.adopted, tl.synced.Load(), tl.applied.Load())
	}
}

// bootstrapPrimary serves the replica snapshot of a random n-participant
// campaign under the mechanism.
func bootstrapPrimary(tb testing.TB, mech core.Mechanism, n int) *httptest.Server {
	tb.Helper()
	rng := rand.New(rand.NewSource(int64(n)))
	t := tree.New()
	for i := 0; i < n; i++ {
		id := t.AddUnchecked(tree.NodeID(rng.Intn(t.Len())), 0.5+rng.Float64()*4)
		if err := t.SetLabel(id, fmt.Sprintf("p%d", i)); err != nil {
			tb.Fatal(err)
		}
	}
	primary := server.New(mech)
	if err := primary.RestoreState(journal.Snapshot{LastSeq: uint64(2 * n), Tree: t}); err != nil {
		tb.Fatal(err)
	}
	pub := NewPublisher(nil)
	campaign := PrimaryCampaign{
		Meta:     Meta{ID: "bench", Mechanism: "geometric", Params: mech.Params()},
		Snapshot: primary.SnapshotState,
		LastSeq:  primary.LastSeq,
	}
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		pub.ServeSnapshot(w, r, campaign)
	}))
	tb.Cleanup(ts.Close)
	return ts
}

// BenchmarkFollowerBootstrap times one follower bootstrap: the GET of
// the primary's replica snapshot (the primary's copy and encode
// included) through to the adopted state, reward aggregates folded.
// The n=1000000 point runs with ITREE_BENCH_LARGE=1.
func BenchmarkFollowerBootstrap(b *testing.B) {
	sizes := []int{100_000}
	if os.Getenv("ITREE_BENCH_LARGE") != "" {
		sizes = append(sizes, 1_000_000)
	}
	mech, err := geometric.Default(core.DefaultParams())
	if err != nil {
		b.Fatal(err)
	}
	for _, n := range sizes {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			ts := bootstrapPrimary(b, mech, n)
			m, err := NewManager(Options{Primary: ts.URL, Target: adoptTarget{mech}})
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tl := &tail{id: "bench"}
				if err := m.bootstrap(context.Background(), tl); err != nil {
					b.Fatal(err)
				}
				if got := tl.applied.Load(); got != uint64(2*n) {
					b.Fatalf("bootstrapped at seq %d, want %d", got, 2*n)
				}
			}
		})
	}
}
