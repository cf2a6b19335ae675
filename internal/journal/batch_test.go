package journal

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

// TestAppendBatchBytesIdentical: a batch of N must write exactly the
// bytes N batches of one would, with the same sequence numbers — this
// is what makes -batch-max=1 vs N a pure performance knob with no
// journal-format consequences.
func TestAppendBatchBytesIdentical(t *testing.T) {
	events := []Event{
		{Kind: KindJoin, Name: "ada"},
		{Kind: KindJoin, Name: "bob", Sponsor: "ada"},
		{Kind: KindContribute, Name: "ada", Amount: 1.5},
		{Kind: KindContribute, Name: "bob", Amount: 0.25},
	}

	var one, batch bytes.Buffer
	jw1 := NewWriter(&one, 1)
	for _, e := range events {
		if _, err := appendOne(jw1, e); err != nil {
			t.Fatal(err)
		}
	}
	jw2 := NewWriter(&batch, 1)
	persisted, err := jw2.AppendBatch(events)
	if err != nil {
		t.Fatal(err)
	}

	if !bytes.Equal(one.Bytes(), batch.Bytes()) {
		t.Fatalf("batch bytes differ from batches of one:\nseq:\n%s\nbatch:\n%s", one.String(), batch.String())
	}
	for i, e := range persisted {
		if e.Seq != uint64(i+1) {
			t.Fatalf("persisted[%d].Seq = %d, want %d", i, e.Seq, i+1)
		}
	}
	// Both writers continue from the same next sequence number.
	a, err := appendOne(jw1, Event{Kind: KindJoin, Name: "cora"})
	if err != nil {
		t.Fatal(err)
	}
	b, err := appendOne(jw2, Event{Kind: KindJoin, Name: "cora"})
	if err != nil {
		t.Fatal(err)
	}
	if a.Seq != b.Seq || a.Seq != 5 {
		t.Fatalf("next seqs = %d, %d, want both 5", a.Seq, b.Seq)
	}
}

// TestAppendBatchSingleWrite: the whole batch must reach the
// underlying writer as one Write call (one fsync under SyncAlways).
func TestAppendBatchSingleWrite(t *testing.T) {
	cw := &countingWriter{}
	jw := NewWriter(cw, 1)
	_, err := jw.AppendBatch([]Event{
		{Kind: KindJoin, Name: "a"},
		{Kind: KindJoin, Name: "b"},
		{Kind: KindContribute, Name: "a", Amount: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	if cw.writes != 1 {
		t.Fatalf("writes = %d, want 1", cw.writes)
	}
}

type countingWriter struct {
	writes int
	buf    bytes.Buffer
}

func (w *countingWriter) Write(p []byte) (int, error) {
	w.writes++
	return w.buf.Write(p)
}

// TestAppendBatchValidationAtomic: one invalid event anywhere fails the
// whole batch before any byte is written or sequence consumed.
func TestAppendBatchValidationAtomic(t *testing.T) {
	var buf bytes.Buffer
	jw := NewWriter(&buf, 1)
	_, err := jw.AppendBatch([]Event{
		{Kind: KindJoin, Name: "a"},
		{Kind: KindContribute, Name: "a", Amount: -1}, // invalid
		{Kind: KindJoin, Name: "b"},
	})
	if err == nil {
		t.Fatal("expected validation error")
	}
	if buf.Len() != 0 {
		t.Fatalf("failed batch wrote %d bytes", buf.Len())
	}
	e, err := appendOne(jw, Event{Kind: KindJoin, Name: "a"})
	if err != nil {
		t.Fatal(err)
	}
	if e.Seq != 1 {
		t.Fatalf("seq after failed batch = %d, want 1", e.Seq)
	}
}

func TestAppendBatchEmpty(t *testing.T) {
	var buf bytes.Buffer
	jw := NewWriter(&buf, 1)
	out, err := jw.AppendBatch(nil)
	if err != nil || out != nil {
		t.Fatalf("empty batch = %v, %v", out, err)
	}
	if buf.Len() != 0 {
		t.Fatalf("empty batch wrote %d bytes", buf.Len())
	}
}

// TestValidateNonFinite: NaN sails past `<= 0` comparisons (every NaN
// comparison is false) and none of NaN/±Inf are encodable as JSON —
// Validate must reject them before they reach the log.
func TestValidateNonFinite(t *testing.T) {
	for _, amount := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		e := Event{Seq: 1, Kind: KindContribute, Name: "a", Amount: amount}
		err := e.Validate()
		if err == nil {
			t.Fatalf("amount %v validated", amount)
		}
		if !strings.Contains(err.Error(), "finite") {
			t.Fatalf("amount %v error = %v, want mention of finiteness", amount, err)
		}
	}
	// The append paths both route through Validate.
	var buf bytes.Buffer
	jw := NewWriter(&buf, 1)
	if _, err := appendOne(jw, Event{Kind: KindContribute, Name: "a", Amount: math.NaN()}); err == nil {
		t.Fatal("a batch of one accepted NaN")
	}
	if _, err := jw.AppendBatch([]Event{{Kind: KindContribute, Name: "a", Amount: math.Inf(1)}}); err == nil {
		t.Fatal("AppendBatch accepted +Inf")
	}
	if buf.Len() != 0 {
		t.Fatalf("rejected events wrote %d bytes", buf.Len())
	}
}
