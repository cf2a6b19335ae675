package replica_test

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"incentivetree/internal/journal"
	"incentivetree/internal/replica"
)

// streamJournal serves one journal request for c and decodes the
// records it carries; safe to call from any goroutine.
func streamJournal(c replica.PrimaryCampaign, query string) (*httptest.ResponseRecorder, []journal.Event, error) {
	rec := httptest.NewRecorder()
	replica.NewPublisher(nil).ServeJournal(rec, httptest.NewRequest("GET", "/?"+query, nil), c)
	if rec.Code != http.StatusOK {
		return rec, nil, fmt.Errorf("%s: HTTP %d (%s)", query, rec.Code, rec.Body)
	}
	var events []journal.Event
	dec := journal.NewDecoder(bytes.NewReader(rec.Body.Bytes()))
	for {
		e, err := dec.Next()
		if errors.Is(err, io.EOF) {
			return rec, events, nil
		}
		if err != nil {
			return rec, nil, fmt.Errorf("%s: decode stream: %w", query, err)
		}
		events = append(events, e)
	}
}

// TestJournalStreamStopsAtCommittedSeq: a record in the journal file
// above the committed seq (its fsync may still fail and roll it back)
// never reaches a follower; once rolled back and replaced, the stream
// carries the replacement.
func TestJournalStreamStopsAtCommittedSeq(t *testing.T) {
	var buf bytes.Buffer
	enc := journal.NewEncoder(&buf)
	for _, e := range []journal.Event{
		{Seq: 1, Kind: journal.KindJoin, Name: "ada"},
		{Seq: 2, Kind: journal.KindContribute, Name: "ada", Amount: 2},
	} {
		if err := enc.Encode(e); err != nil {
			t.Fatal(err)
		}
	}
	committedLen := int64(buf.Len())
	if err := enc.Encode(journal.Event{Seq: 3, Kind: journal.KindContribute, Name: "ada", Amount: 5}); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "journal.log")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	var lastSeq atomic.Uint64
	lastSeq.Store(2)
	c := replica.PrimaryCampaign{
		LastSeq:         lastSeq.Load,
		CheckpointedSeq: func() uint64 { return 0 },
		JournalPath:     path,
	}

	rec, events, err := streamJournal(c, "from=1&wait=0")
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 2 || events[1].Seq != 2 {
		t.Fatalf("from=1 streamed %+v, want seqs 1 and 2 only", events)
	}
	if got := rec.Header().Get(replica.HeaderCommittedSeq); got != "2" {
		t.Fatalf("committed header %q, want 2", got)
	}
	if _, events, err := streamJournal(c, "from=3&wait=50ms"); err != nil || len(events) != 0 {
		t.Fatalf("from=3 streamed %+v, %v; want no records", events, err)
	}

	// A request held over the uncommitted record sees it rolled back and
	// replaced, and carries only the replacement.
	held := make(chan []journal.Event)
	go func() {
		_, events, err := streamJournal(c, "from=3&wait=5s")
		if err != nil {
			t.Error(err)
		}
		held <- events
	}()
	time.Sleep(100 * time.Millisecond) // several polls
	replacement := journal.Event{Seq: 3, Kind: journal.KindJoin, Name: "bo", Sponsor: "ada"}
	if err := os.Truncate(path, committedLen); err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := journal.NewEncoder(f).Encode(replacement); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	lastSeq.Store(3)
	want := []journal.Event{replacement}
	if got := <-held; !reflect.DeepEqual(got, want) {
		t.Fatalf("held stream carried %+v, want %+v", got, want)
	}
	if _, got, err := streamJournal(c, "from=3&wait=0"); err != nil || !reflect.DeepEqual(got, want) {
		t.Fatalf("from=3 after commit streamed %+v, %v; want %+v", got, err, want)
	}
}
