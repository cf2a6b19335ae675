package main

import (
	"encoding/json"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"
)

// tiny is a workload small enough for unit tests.
var tiny = workload{
	name: "tiny", mechanism: "geometric", honest: 24, rate: 40,
	writers: 2, join: 0.1, contribute: 0.9, segments: 2,
}

func TestGenerateIsAFunctionOfTheSeed(t *testing.T) {
	for _, w := range []workload{tiny, {name: "reads", mechanism: "tdrm", honest: 24, writers: 1, contribute: 1, leaderReader: true, segments: 1}} {
		a, b := generate(w, 7, 60), generate(w, 7, 60)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("%s: same seed, different streams", w.name)
		}
		c := generate(w, 8, 60)
		if reflect.DeepEqual(a.population, c.population) || reflect.DeepEqual(a.clients, c.clients) {
			t.Fatalf("%s: seeds 7 and 8 gave the same stream", w.name)
		}
	}
}

func TestGenerateShapesTheStreams(t *testing.T) {
	s := generate(tiny, 1, 400)
	if len(s.clients) != 2 || len(s.clients[0]) != 200 || len(s.clients[1]) != 200 {
		t.Fatalf("client streams %d, want 2 of 200", len(s.clients))
	}
	for c, ops := range s.clients {
		joined := map[string]bool{}
		for _, o := range s.names {
			joined[o] = true
		}
		for _, o := range ops {
			target := o.name
			if o.kind == kindJoin {
				target = o.sponsor
			}
			if !joined[target] {
				t.Fatalf("client %d names %q before it joined", c, target)
			}
			if o.kind == kindJoin {
				joined[o.name] = true
			}
		}
	}
	// tiny's mix has no reads, so both read kinds are probed.
	kinds := map[opKind]int{}
	for _, o := range s.probes {
		kinds[o.kind]++
	}
	if kinds[kindParticipant] != probesPerKind || kinds[kindLeaderboard] != probesPerKind {
		t.Fatalf("probes %v, want %d of each read kind", kinds, probesPerKind)
	}
}

// prepared returns a started daemon on a fresh copy of tiny's image,
// and the stream it was prepared from.
func prepared(t *testing.T) (*daemon, *stream) {
	t.Helper()
	dir := t.TempDir()
	s := generate(tiny, 3, 40)
	image := filepath.Join(dir, "image")
	if err := prepareImage(image, tiny, &s); err != nil {
		t.Fatal(err)
	}
	if err := copyDir(image, filepath.Join(dir, "run")); err != nil {
		t.Fatal(err)
	}
	d, err := startDaemon(filepath.Join(dir, "run"), tiny, daemonOptions{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := d.stop(); err != nil {
			t.Error(err)
		}
	})
	return d, &s
}

func TestChecksCatchLostWritesAndBudgetViolations(t *testing.T) {
	d, s := prepared(t)
	dr := newLoader(nil)
	defer dr.close()
	var acked tally
	for _, c := range buildCalls(d.base, s.clients[0]) {
		dr.do(c, &acked)
	}
	if acked.failed != 0 || acked.writes == 0 {
		t.Fatalf("writes: %d failed, %d acknowledged (%v)", acked.failed, acked.writes, acked.firstErr)
	}
	body, err := dr.get(d.base + "/rewards")
	if err != nil {
		t.Fatal(err)
	}
	want := expect(s, &acked)
	if err := checkRewards(body, want); err != nil {
		t.Fatalf("honest state rejected: %v", err)
	}

	lost := want
	lost.total += 2.5 // a contribute the daemon acknowledged, then lost
	if err := checkRewards(body, lost); err == nil || !strings.Contains(err.Error(), "total_contribution") {
		t.Fatalf("lost contribute not caught: %v", err)
	}
	lostJoin := want
	lostJoin.count++
	if err := checkRewards(body, lostJoin); err == nil || !strings.Contains(err.Error(), "participants") {
		t.Fatalf("lost join not caught: %v", err)
	}

	var table map[string]any
	if err := json.Unmarshal(body, &table); err != nil {
		t.Fatal(err)
	}
	table["total_reward"] = table["budget"].(float64) * 1.01
	over, err := json.Marshal(table)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkRewards(over, want); err == nil || !strings.Contains(err.Error(), "budget") {
		t.Fatalf("over-budget table not caught: %v", err)
	}
	if err := checkReopen(body, over); err == nil {
		t.Fatal("differing reopen bodies not caught")
	}
}

func TestSessionPassesItsChecks(t *testing.T) {
	dir := t.TempDir()
	s := generate(tiny, 5, 80)
	image := filepath.Join(dir, "image")
	if err := prepareImage(image, tiny, &s); err != nil {
		t.Fatal(err)
	}
	tr := newTracer()
	r, err := runSession(tiny, &s, image, dir, 2, tr)
	if err != nil {
		t.Fatal(err)
	}
	if r.failed() != 0 || r.checkErr != nil {
		t.Fatalf("%d failed, check: %v (%v)", r.failed(), r.checkErr, r.firstErr())
	}
	if len(r.setups) != 2 || len(r.segs) != tiny.segments || r.measured.completed() != 80 {
		t.Fatalf("setups %d, segments %d, completed %d", len(r.setups), len(r.segs), r.measured.completed())
	}
	m := endToEnd(r)
	if len(m) != 7 {
		t.Errorf("%d end-to-end metrics, want 7", len(m))
	}
	for _, name := range []string{"setup_s", "contribute_p50_ms", "participant_p50_ms", "leaderboard_p50_ms", "cpu_ms_per_op", "heap_live_mb", "disk_mb"} {
		if m[name].Value <= 0 {
			t.Errorf("%s = %v, want > 0", name, m[name].Value)
		}
	}
	ls := aggregate(tr.snapshot(), r.windows)
	if ls.serveN[kindContribute] == 0 || ls.rewardsN[1] == 0 {
		t.Fatalf("traced session recorded no contribute spans or commit evaluations: %+v", ls)
	}
	if r.counters.batchCount == 0 || r.counters.syncs == 0 {
		t.Fatalf("counters did not move: %+v", r.counters)
	}
}

func TestAggregateSelfTime(t *testing.T) {
	ms := int64(time.Millisecond)
	spans := []span{
		{ID: 1, Req: 1, Name: "client.participant", Start: 0, End: 10 * ms},
		{ID: 2, Parent: 1, Req: 1, Name: "store.serve.participant", Start: 1 * ms, End: 9 * ms},
		{ID: 3, Parent: 2, Req: 1, Name: "core.rewards", Note: "read", Start: 2 * ms, End: 5 * ms},
		{ID: 4, Name: "core.rewards", Note: "commit", Start: 20 * ms, End: 21 * ms},
	}
	ls := aggregate(spans, [][2]int64{{0, 30 * ms}})
	k := kindParticipant
	if ls.serveN[k] != 1 || ls.serveSum[k] != 8*time.Millisecond || ls.serveSelf[k] != 5*time.Millisecond {
		t.Fatalf("serve n=%d sum=%v self=%v, want 1, 8ms, 5ms", ls.serveN[k], ls.serveSum[k], ls.serveSelf[k])
	}
	if ls.measClient != 10*time.Millisecond || ls.rewardsN != [2]int{1, 1} {
		t.Fatalf("client %v, rewards %v", ls.measClient, ls.rewardsN)
	}
}
