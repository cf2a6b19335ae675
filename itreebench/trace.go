package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"net/http"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"incentivetree/internal/core"
	"incentivetree/internal/obs"
	"incentivetree/internal/store"
	"incentivetree/internal/tree"
)

// requestHeader carries the client's request id to the serve wrapper.
const requestHeader = "X-Itreebench-Request"

// span is one timed call into a layer. Client spans use the request id
// as their own id; a serve span's parent is its client span; a reward
// evaluation's parent is the serve span it ran inside, or none when
// the ingest committer ran it for a whole batch.
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Req    uint64 `json:"req,omitempty"`
	Name   string `json:"name"`
	Note   string `json:"note,omitempty"` // leaderboard: hit/miss; rewards: read/commit
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory until the run writes them out.
type tracer struct {
	t0    time.Time
	ids   atomic.Uint64
	mu    sync.Mutex
	spans []span
	// active maps a goroutine id to the serve span running on it, so a
	// reward evaluation made by a request handler finds its parent.
	active sync.Map
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) newID() uint64        { return t.ids.Add(1) }
func (t *tracer) at(x time.Time) int64 { return x.Sub(t.t0).Nanoseconds() }

func (t *tracer) add(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// snapshot returns the spans recorded so far.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// wrapHandler times every call into the store's handler. A leaderboard
// request whose call moved the cache-miss counter is marked a miss.
func (t *tracer) wrapHandler(h http.Handler, reg *obs.Registry) http.Handler {
	misses := reg.Counter("itree_rewards_cache_misses_total", "", "campaign", store.DefaultID)
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		req, _ := strconv.ParseUint(r.Header.Get(requestHeader), 10, 64)
		kind := routeKind(r.URL.Path)
		s := span{ID: t.newID(), Parent: req, Req: req, Name: "store.serve." + kind}
		g := goid()
		t.active.Store(g, s)
		before := misses.Value()
		start := time.Now()
		h.ServeHTTP(w, r)
		end := time.Now()
		t.active.Delete(g)
		if kind == "leaderboard" {
			s.Note = "hit"
			if misses.Value() > before {
				s.Note = "miss"
			}
		}
		s.Start, s.End = t.at(start), t.at(end)
		t.add(s)
	})
}

// routeKind names a campaign route by its first segment.
func routeKind(path string) string {
	rest := strings.TrimPrefix(path, "/v1/campaigns/"+store.DefaultID+"/")
	if i := strings.IndexByte(rest, '/'); i >= 0 {
		rest = rest[:i]
	}
	if rest == "participants" {
		return "participant"
	}
	return rest
}

// tracedMechanism times every reward evaluation; the store's
// NewMechanism returns it around the instrumented mechanism.
type tracedMechanism struct {
	core.Mechanism
	t *tracer
}

func (m tracedMechanism) Rewards(tr *tree.Tree) (core.Rewards, error) {
	start := time.Now()
	r, err := m.Mechanism.Rewards(tr)
	end := time.Now()
	s := span{ID: m.t.newID(), Name: "core.rewards", Note: "commit", Start: m.t.at(start), End: m.t.at(end)}
	if v, ok := m.t.active.Load(goid()); ok {
		parent := v.(span)
		s.Parent, s.Req, s.Note = parent.ID, parent.Req, "read"
	}
	m.t.add(s)
	return r, err
}

// goid returns the calling goroutine's id, parsed from the first line
// of its stack trace ("goroutine 42 [running]:").
func goid() uint64 {
	var buf [64]byte
	n := runtime.Stack(buf[:], false)
	fields := bytes.Fields(buf[:n])
	if len(fields) < 2 {
		return 0
	}
	id, _ := strconv.ParseUint(string(fields[1]), 10, 64)
	return id
}

// writeSpans writes the spans as JSON lines.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
