package server

import (
	"bytes"
	"context"
	"errors"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"incentivetree/internal/journal"
	"incentivetree/internal/obs"
)

// wedge holds s's read lock, so no batch can commit, until the returned
// release is called; writes submitted meanwhile wait in the queue.
func wedge(s *Server) (release func()) {
	held, unblock, done := make(chan struct{}), make(chan struct{}), make(chan struct{})
	go func() {
		s.SnapshotAt(func() {
			close(held)
			<-unblock
		})
		close(done)
	}()
	<-held
	return func() {
		close(unblock)
		<-done
	}
}

// waitQueue polls until the queue holds want writes and a drainer runs.
func waitQueue(t *testing.T, s *Server, want int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		s.queueMu.Lock()
		n, draining := len(s.queue), s.draining
		s.queueMu.Unlock()
		if n == want && draining {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("queue holds %d writes (draining %v), want %d", n, draining, want)
		}
		time.Sleep(time.Millisecond)
	}
}

// batchLog is a journal sink that records the names each append
// carried. A commit appends its batch with one Write, so each Write is
// one batch.
type batchLog struct {
	mu      sync.Mutex
	batches [][]string
}

func (l *batchLog) Write(p []byte) (int, error) {
	events, err := journal.Read(bytes.NewReader(p))
	if err != nil {
		return 0, err
	}
	names := make([]string, len(events))
	for i, e := range events {
		names[i] = e.Name
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.batches = append(l.batches, names)
	return len(p), nil
}

// wedgedJoins submits a join of "first" and then of each of names to a
// wedged server, in that arrival order, and releases the wedge. It
// returns each join's error, "first"'s first, and the names each
// committed batch joined.
func wedgedJoins(t *testing.T, batchMax int, names ...string) (errs []error, batches [][]string) {
	t.Helper()
	log := new(batchLog)
	s := New(suiteMechanism(t, "geometric"), WithGroupCommit(batchMax, 0),
		WithJournal(journal.NewWriter(log, 1)))
	if err := s.Join("alice", ""); err != nil {
		t.Fatal(err)
	}
	release := wedge(s)
	all := append([]string{"first"}, names...)
	results := make([]chan error, len(all))
	for i, name := range all {
		results[i] = make(chan error, 1)
		go func() {
			_, err := s.SubmitJoin(context.Background(), name, "alice")
			results[i] <- err
		}()
		// "first" is in flight once the drainer has taken it; each later
		// join waits in the queue behind the ones before it.
		waitQueue(t, s, i)
	}
	release()
	for _, r := range results {
		errs = append(errs, <-r)
	}
	log.mu.Lock()
	defer log.mu.Unlock()
	return errs, log.batches[1:] // the first batch joined alice
}

// TestSubmitReturnsValue: a submit returns its participant's view of
// the state its write committed into.
func TestSubmitReturnsValue(t *testing.T) {
	s := New(suiteMechanism(t, "geometric"))
	for _, submit := range []func() (Participant, error){
		func() (Participant, error) { return s.SubmitJoin(context.Background(), " alice ", "") },
		func() (Participant, error) { return s.SubmitContribute(context.Background(), "alice", 2) },
	} {
		got, err := submit()
		if err != nil {
			t.Fatal(err)
		}
		want, err := s.participant("alice")
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("submit returned %+v, want the committed %+v", got, want)
		}
	}
	if p, _ := s.participant("alice"); p.Contribution != 2 {
		t.Fatalf("contribution = %v, want 2", p.Contribution)
	}
}

// TestBatchFormation: writes queued behind a commit in flight commit
// together in the next batch, in arrival order.
func TestBatchFormation(t *testing.T) {
	errs, batches := wedgedJoins(t, 64, "p0", "p1", "p2", "p3", "p4")
	for i, err := range errs {
		if err != nil {
			t.Fatalf("join %d: %v", i, err)
		}
	}
	want := [][]string{{"first"}, {"p0", "p1", "p2", "p3", "p4"}}
	if !slices.EqualFunc(batches, want, slices.Equal) {
		t.Fatalf("batches = %v, want %v", batches, want)
	}
}

// TestBatchMaxCap: a queue longer than batchMax commits in batches of
// at most batchMax writes, still in arrival order.
func TestBatchMaxCap(t *testing.T) {
	errs, batches := wedgedJoins(t, 2, "p0", "p1", "p2", "p3", "p4", "p5")
	for i, err := range errs {
		if err != nil {
			t.Fatalf("join %d: %v", i, err)
		}
	}
	want := [][]string{{"first"}, {"p0", "p1"}, {"p2", "p3"}, {"p4", "p5"}}
	if !slices.EqualFunc(batches, want, slices.Equal) {
		t.Fatalf("batches = %v, want %v", batches, want)
	}
}

// TestPerOpErrorIsolation: a refused write gets its own error and does
// not fail its batch-mates.
func TestPerOpErrorIsolation(t *testing.T) {
	errs, batches := wedgedJoins(t, 64, "p0", "alice", "p1")
	if errs[0] != nil || errs[1] != nil || errs[3] != nil {
		t.Fatalf("batch-mates of a refused join failed: %v", errs)
	}
	if errs[2] == nil {
		t.Fatal("a duplicate join was acknowledged")
	}
	want := [][]string{{"first"}, {"p0", "p1"}}
	if !slices.EqualFunc(batches, want, slices.Equal) {
		t.Fatalf("batches = %v, want %v", batches, want)
	}
}

// TestQueueFullSheds: with one write in flight and the queue at its
// depth, a further submit sheds with ErrQueueFull and counts in
// itree_ingest_shed_total; the writes already admitted still commit.
func TestQueueFullSheds(t *testing.T) {
	reg := obs.NewRegistry()
	s := New(suiteMechanism(t, "geometric"), WithGroupCommit(0, 1), WithMetricsLabels(reg))
	release := wedge(s)
	done := make(chan error, 2)
	for i, name := range []string{"inflight", "queued"} {
		go func() {
			_, err := s.SubmitJoin(context.Background(), name, "")
			done <- err
		}()
		waitQueue(t, s, i)
	}
	if _, err := s.SubmitJoin(context.Background(), "shed", ""); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("err = %v, want ErrQueueFull", err)
	}
	if got := reg.Counter("itree_ingest_shed_total", "").Value(); got != 1 {
		t.Fatalf("itree_ingest_shed_total = %d, want 1", got)
	}
	release()
	for i := 0; i < 2; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.participant("shed"); err == nil {
		t.Fatal("a shed join committed")
	}
}

// TestContextCancellation: a submit whose context ends returns
// ctx.Err() at once, and its write still commits.
func TestContextCancellation(t *testing.T) {
	s := New(suiteMechanism(t, "geometric"))
	release := wedge(s)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := s.SubmitJoin(ctx, "abandoned", "")
		done <- err
	}()
	waitQueue(t, s, 0)
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	release()
	// The queue commits in arrival order, so once a later write has
	// committed the abandoned one has too.
	if _, err := s.SubmitJoin(context.Background(), "later", ""); err != nil {
		t.Fatal(err)
	}
	if _, err := s.participant("abandoned"); err != nil {
		t.Fatalf("the abandoned join did not commit: %v", err)
	}
}

// TestMetricsLifecycle: the group commit's series register with the
// server's other series under its labels, count what commits, and
// leave with UnregisterMetrics.
func TestMetricsLifecycle(t *testing.T) {
	reg := obs.NewRegistry()
	s := New(suiteMechanism(t, "geometric"), WithMetricsLabels(reg, "campaign", "acme"))
	if _, err := s.SubmitJoin(context.Background(), "a", ""); err != nil {
		t.Fatal(err)
	}
	ingest := func() map[string]float64 {
		out := map[string]float64{}
		for _, mv := range reg.Snapshot() {
			if strings.HasPrefix(mv.Name, "itree_ingest_") {
				if mv.Labels != `campaign="acme"` {
					t.Fatalf("%s{%s}: want the server's labels", mv.Name, mv.Labels)
				}
				out[mv.Name] = mv.Value + float64(mv.Count)
			}
		}
		return out
	}
	got := ingest()
	for name, want := range map[string]float64{
		"itree_ingest_queue_depth":    0,
		"itree_ingest_shed_total":     0,
		"itree_ingest_batches_total":  1,
		"itree_ingest_batch_size":     1,
		"itree_ingest_commit_seconds": 1,
	} {
		if v, ok := got[name]; !ok || v != want {
			t.Fatalf("%s = %v (registered %v), want %v", name, v, ok, want)
		}
	}
	UnregisterMetrics(reg, "campaign", "acme")
	if left := ingest(); len(left) != 0 {
		t.Fatalf("series left after UnregisterMetrics: %v", left)
	}
}

// TestQueueStartsNoGoroutineWhenIdle: New starts no goroutine, and once
// a burst of writes has committed the goroutine count is back at its
// baseline: the drainer exits when it finds the queue empty.
func TestQueueStartsNoGoroutineWhenIdle(t *testing.T) {
	base := runtime.NumGoroutine()
	s := New(suiteMechanism(t, "geometric"), WithGroupCommit(4, 0))
	if n := runtime.NumGoroutine(); n > base {
		t.Fatalf("New started %d goroutines", n-base)
	}
	if err := s.Join("root", ""); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < 16; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				if _, err := s.SubmitContribute(context.Background(), "root", 1); err != nil {
					t.Error(err)
				}
			}
		}()
	}
	wg.Wait()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines outlive the burst", runtime.NumGoroutine()-base)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestQueueStress: many writers in rounds, each write after a random
// pause, every submit with a deadline. A write left queued with no
// drainer would run into its deadline; every submit must return its
// commit instead, and every write must land.
func TestQueueStress(t *testing.T) {
	const writers, rounds = 16, 300
	s := New(suiteMechanism(t, "geometric"), WithGroupCommit(4, 0))
	if err := s.Join("root", ""); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	for r := 0; r < rounds; r++ {
		var wg sync.WaitGroup
		for w := 0; w < writers; w++ {
			pause := time.Duration(rng.Intn(200)) * time.Microsecond
			wg.Add(1)
			go func() {
				defer wg.Done()
				time.Sleep(pause)
				ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
				defer cancel()
				if _, err := s.SubmitContribute(ctx, "root", 1); err != nil {
					t.Errorf("round %d: %v", r, err)
				}
			}()
		}
		wg.Wait()
		if t.Failed() {
			return
		}
	}
	p, err := s.participant("root")
	if err != nil {
		t.Fatal(err)
	}
	if want := float64(writers * rounds); p.Contribution != want {
		t.Fatalf("contribution = %v, want %v", p.Contribution, want)
	}
	if n := s.IngestQueueLen(); n != 0 {
		t.Fatalf("queue holds %d writes after every submit returned", n)
	}
}
