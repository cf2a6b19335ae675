package replica

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"net/http"
	"os"
	"strconv"
	"time"

	"incentivetree/internal/journal"
	"incentivetree/internal/obs"
)

// Streaming tunables for the journal endpoint.
const (
	// maxWait caps the long-poll hold a client may request.
	maxWait = 30 * time.Second
	// pollInterval is how often a held request re-checks the journal.
	pollInterval = 20 * time.Millisecond
	// heartbeatEvery paces blank-line heartbeats during a hold.
	heartbeatEvery = 500 * time.Millisecond
	// flushEvery flushes the response after this many streamed records,
	// so a follower catching up over a large suffix sees steady progress.
	flushEvery = 256
)

// PrimaryCampaign is the read-side view of one hosted campaign that
// the replication endpoints need. internal/store adapts its Campaign;
// tests build it directly around a bare server.Server.
type PrimaryCampaign struct {
	// Meta is the campaign configuration shipped to followers.
	Meta Meta
	// Snapshot exports an atomic state snapshot (server.SnapshotState).
	Snapshot func() journal.Snapshot
	// LastSeq returns the committed sequence number.
	LastSeq func() uint64
	// CheckpointedSeq returns the highest sequence covered by a durable
	// snapshot — the journal retains nothing at or below it after
	// compaction. Zero when the campaign has never checkpointed.
	CheckpointedSeq func() uint64
	// JournalPath locates the campaign's journal file; empty means the
	// campaign has no store-managed journal and cannot stream.
	JournalPath string
}

// Publisher serves the primary side of the replication protocol. A
// single Publisher handles every campaign; per-request state lives on
// the stack. Pass a nil registry to run uninstrumented.
type Publisher struct {
	mSnapshots    *obs.Counter
	mStreams      *obs.Counter
	mStreamEvents *obs.Counter
	mGapResponses *obs.Counter
}

// NewPublisher builds a Publisher, registering its counters on reg
// (nil = unregistered counters, still safe to use).
func NewPublisher(reg *obs.Registry) *Publisher {
	p := &Publisher{
		mSnapshots:    new(obs.Counter),
		mStreams:      new(obs.Counter),
		mStreamEvents: new(obs.Counter),
		mGapResponses: new(obs.Counter),
	}
	if reg != nil {
		p.mSnapshots = reg.Counter("itree_replica_snapshots_served_total",
			"Replication snapshot requests served to followers.")
		p.mStreams = reg.Counter("itree_replica_streams_total",
			"Replication journal-stream requests served to followers.")
		p.mStreamEvents = reg.Counter("itree_replica_stream_events_total",
			"Journal events streamed to followers.")
		p.mGapResponses = reg.Counter("itree_replica_gap_responses_total",
			"Journal-stream requests refused with 410 because compaction dropped the requested records.")
	}
	return p
}

// ServeSnapshot answers GET .../replica/snapshot: an atomic state
// snapshot in the binary checkpoint codec, with the campaign meta in
// HeaderMeta and the committed sequence in HeaderCommittedSeq.
func (p *Publisher) ServeSnapshot(w http.ResponseWriter, r *http.Request, c PrimaryCampaign) {
	snap := c.Snapshot()
	body, err := journal.EncodeSnapshot(&snap)
	if err != nil {
		writeJSON(w, http.StatusInternalServerError, errorResponse{err.Error()})
		return
	}
	// Meta is plain strings and numbers: marshalling cannot fail.
	meta, _ := json.Marshal(c.Meta)
	w.Header().Set(HeaderMeta, string(meta))
	w.Header().Set(HeaderCommittedSeq, strconv.FormatUint(c.LastSeq(), 10))
	w.Header().Set("Content-Type", "application/octet-stream")
	_, _ = w.Write(body) // a failed write is a follower gone away; it retries
	p.mSnapshots.Inc()
}

// gapResponse is the 410 body telling a follower to re-bootstrap.
type gapResponse struct {
	Error           string `json:"error"`
	CheckpointedSeq uint64 `json:"checkpointed_seq"`
}

// ServeJournal answers GET .../replica/journal?from=<seq>&wait=<dur>:
// a long-poll stream of journal records from <seq> onward.
//
// The response is one batch: everything available is streamed and the
// request completes; the follower immediately re-polls from its new
// position. When nothing is available yet the request is held up to
// <wait> (emitting heartbeats), so a caught-up follower learns of new
// commits within one round trip. Records compacted away by a
// checkpoint yield 410 — the distinct "snapshot required" signal — and
// never an empty stream.
func (p *Publisher) ServeJournal(w http.ResponseWriter, r *http.Request, c PrimaryCampaign) {
	p.mStreams.Inc()
	from, err := strconv.ParseUint(r.URL.Query().Get("from"), 10, 64)
	if err != nil || from == 0 {
		writeJSON(w, http.StatusBadRequest, errorResponse{"from must be a positive sequence number"})
		return
	}
	var wait time.Duration
	if ws := r.URL.Query().Get("wait"); ws != "" {
		wait, err = time.ParseDuration(ws)
		if err != nil || wait < 0 {
			writeJSON(w, http.StatusBadRequest, errorResponse{"wait must be a non-negative duration"})
			return
		}
		if wait > maxWait {
			wait = maxWait
		}
	}
	if c.JournalPath == "" {
		writeJSON(w, http.StatusServiceUnavailable,
			errorResponse{"campaign has no managed journal; replication requires -data-dir persistence"})
		return
	}
	if cp := c.CheckpointedSeq(); from <= cp {
		p.mGapResponses.Inc()
		w.Header().Set(HeaderCommittedSeq, strconv.FormatUint(c.LastSeq(), 10))
		writeJSON(w, http.StatusGone, gapResponse{
			Error:           fmt.Sprintf("records at seq %d were compacted (checkpoint covers %d); snapshot required", from, cp),
			CheckpointedSeq: cp,
		})
		return
	}

	s := &journalStream{pub: p, w: w, c: c, next: from}
	s.flusher, _ = w.(http.Flusher)
	defer s.closeFile()
	if err := s.openFile(); err != nil {
		writeJSON(w, http.StatusInternalServerError, errorResponse{err.Error()})
		return
	}
	s.run(r.Context(), time.Now().Add(wait))
}

// journalStream is the per-request state of one ServeJournal call.
type journalStream struct {
	pub     *Publisher
	w       http.ResponseWriter
	flusher http.Flusher
	c       PrimaryCampaign

	f      *os.File // nil once the stream is aborted; may be reopened
	offset int64    // consumed complete-record prefix of f
	next   uint64   // the sequence number the follower needs next
	sent   int
	enc    *journal.Encoder // non-nil once headers are out
}

func (s *journalStream) openFile() error {
	f, err := os.Open(s.c.JournalPath)
	if errors.Is(err, fs.ErrNotExist) {
		return nil // empty journal: nothing to stream yet
	}
	if err != nil {
		return fmt.Errorf("open journal: %w", err)
	}
	s.f = f
	s.offset = 0
	return nil
}

func (s *journalStream) closeFile() {
	if s.f != nil {
		s.f.Close()
		s.f = nil
	}
}

// sendHeader commits the 200 response. The committed sequence is
// captured at this moment; records streamed later may exceed it (they
// were committed by the time their scan began) and the follower takes
// the max.
func (s *journalStream) sendHeader() {
	if s.enc != nil {
		return
	}
	s.w.Header().Set(HeaderCommittedSeq, strconv.FormatUint(s.c.LastSeq(), 10))
	s.w.Header().Set("Content-Type", "application/octet-stream")
	//itreevet:ignore httpcontract streaming journal records, not a JSON error; the s.enc guard makes the commit idempotent
	s.w.WriteHeader(http.StatusOK)
	s.enc = journal.NewEncoder(s.w)
}

func (s *journalStream) flush() {
	if s.flusher != nil {
		s.flusher.Flush()
	}
}

// scan streams every committed record >= next currently in the file.
// A record above the committed seq is not streamed: its append may yet
// fail and be rolled back, and the next batch then reuses its seq. The
// scan stops at its start, so it streams once committed, or its
// replacement does. It returns stop=true when the response cannot
// usefully continue (write error, mid-log corruption, or a compaction
// gap).
func (s *journalStream) scan() (stop bool) {
	if s.f == nil {
		return false
	}
	if _, err := s.f.Seek(s.offset, io.SeekStart); err != nil {
		return true
	}
	committed := s.c.LastSeq()
	dec := journal.NewDecoder(s.f)
	for {
		start := dec.Offset()
		e, err := dec.Next()
		if err != nil {
			s.offset += dec.Offset()
			// io.EOF is a clean boundary; a torn tail is an append still
			// in flight — both mean "drained for now". Anything else is
			// mid-log corruption: abandon the stream.
			return err != io.EOF && !errors.Is(err, journal.ErrTornTail)
		}
		if e.Seq < s.next {
			continue // prefix the follower already has
		}
		if e.Seq > committed {
			s.offset += start
			return false
		}
		if e.Seq > s.next {
			// The records between next and e.Seq no longer exist here —
			// compaction replaced the file mid-stream. If headers are not
			// out yet this surfaces as 410; otherwise the stream just
			// ends and the follower's next poll gets the 410.
			if s.enc == nil {
				s.pub.mGapResponses.Inc()
				//itreevet:ignore httpcontract the enc==nil guard proves headers are not out on this path
				writeJSON(s.w, http.StatusGone, gapResponse{
					Error:           fmt.Sprintf("records at seq %d were compacted; snapshot required", s.next),
					CheckpointedSeq: s.c.CheckpointedSeq(),
				})
			}
			return true
		}
		s.sendHeader() //itreevet:ignore httpcontract idempotent: sendHeader returns early once s.enc is set
		if err := s.enc.Encode(e); err != nil {
			return true // client went away
		}
		s.next++
		s.sent++
		s.pub.mStreamEvents.Inc()
		if s.sent%flushEvery == 0 {
			s.flush()
		}
	}
}

// run drives the scan/hold loop until a batch is delivered, the
// deadline passes, or the client disconnects.
func (s *journalStream) run(ctx context.Context, deadline time.Time) {
	lastBeat := time.Now()
	for ctx.Err() == nil {
		//itreevet:ignore httpcontract scan only writes through the idempotent sendHeader or the enc==nil-guarded 410
		if stop := s.scan(); stop {
			return
		}
		if s.sent > 0 {
			break // one batch per request: deliver and complete
		}
		if !time.Now().Before(deadline) {
			break
		}
		// Hold for the first record. Headers go out now so heartbeats
		// can flow and intermediaries keep the connection open.
		s.sendHeader() //itreevet:ignore httpcontract idempotent: sendHeader returns early once s.enc is set
		if time.Since(lastBeat) >= heartbeatEvery {
			if s.enc.Heartbeat() != nil {
				return
			}
			lastBeat = time.Now()
		}
		s.flush()
		select {
		case <-ctx.Done():
			return
		case <-time.After(pollInterval):
		}
		if s.c.LastSeq() >= s.next && s.f != nil {
			// Committed records we cannot see: the checkpointer replaced
			// the journal file under our descriptor (appends after a
			// compaction go to the new inode). Reopen and rescan.
			if fi, err := s.f.Stat(); err == nil {
				if cur, err2 := os.Stat(s.c.JournalPath); err2 == nil && !os.SameFile(fi, cur) {
					s.closeFile()
					if s.openFile() != nil {
						return
					}
				}
			}
		}
	}
	//itreevet:ignore httpcontract an empty hold still answers 200 with the committed seq; idempotent via the s.enc guard
	s.sendHeader()
	s.flush()
}
