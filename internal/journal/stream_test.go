package journal

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"strings"
	"testing"
)

// encodeAll renders events through a Writer, returning the exact
// on-disk byte form.
func encodeAll(t *testing.T, events []Event) []byte {
	t.Helper()
	var buf bytes.Buffer
	jw := NewWriter(&buf, events[0].Seq)
	for _, e := range events {
		if _, err := appendOne(jw, Event{Kind: e.Kind, Name: e.Name, Sponsor: e.Sponsor, Amount: e.Amount}); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

func TestDecoderYieldsEventsAndOffsets(t *testing.T) {
	events := []Event{
		{Seq: 1, Kind: KindJoin, Name: "a"},
		{Seq: 2, Kind: KindJoin, Name: "b", Sponsor: "a"},
		{Seq: 3, Kind: KindContribute, Name: "b", Amount: 2.5},
	}
	data := encodeAll(t, events)
	d := NewDecoder(bytes.NewReader(data))
	for i, want := range events {
		got, err := d.Next()
		if err != nil {
			t.Fatalf("event %d: %v", i, err)
		}
		if !got.Equal(want) {
			t.Fatalf("event %d = %+v, want %+v", i, got, want)
		}
	}
	if _, err := d.Next(); err != io.EOF {
		t.Fatalf("want io.EOF at end, got %v", err)
	}
	if d.Offset() != int64(len(data)) {
		t.Fatalf("Offset() = %d, want %d", d.Offset(), len(data))
	}
}

// rec returns e's binary record.
func rec(t *testing.T, e Event) []byte {
	t.Helper()
	data, err := AppendBinaryRecord(nil, e)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// cat concatenates byte slices into a fresh one.
func cat(parts ...[]byte) []byte {
	return bytes.Join(parts, nil)
}

func TestDecoderSkipsBlankHeartbeats(t *testing.T) {
	nl := []byte("\n")
	data := cat(nl, rec(t, Event{Seq: 1, Kind: KindJoin, Name: "a"}), []byte("\n\n\n"),
		rec(t, Event{Seq: 2, Kind: KindContribute, Name: "a", Amount: 1}), []byte("\n\n"))
	d := NewDecoder(bytes.NewReader(data))
	var seqs []uint64
	for {
		e, err := d.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		seqs = append(seqs, e.Seq)
	}
	if len(seqs) != 2 || seqs[0] != 1 || seqs[1] != 2 {
		t.Fatalf("decoded seqs %v, want [1 2]", seqs)
	}
	if d.Offset() != int64(len(data)) {
		t.Fatalf("Offset() = %d, want %d (blank lines count as consumed)", d.Offset(), len(data))
	}
}

func TestDecoderTornTailCarriesResumeOffset(t *testing.T) {
	whole := rec(t, Event{Seq: 1, Kind: KindJoin, Name: "a"})
	second := rec(t, Event{Seq: 2, Kind: KindContribute, Name: "a", Amount: 1})
	data := cat(whole, second[:len(second)-3]) // append cut mid-record
	d := NewDecoder(bytes.NewReader(data))
	if _, err := d.Next(); err != nil {
		t.Fatal(err)
	}
	_, err := d.Next()
	var torn *TornTailError
	if !errors.As(err, &torn) {
		t.Fatalf("want TornTailError, got %v", err)
	}
	if torn.Offset != int64(len(whole)) {
		t.Fatalf("torn offset %d, want %d", torn.Offset, len(whole))
	}
	if d.Offset() != int64(len(whole)) {
		t.Fatalf("decoder offset %d, want %d", d.Offset(), len(whole))
	}
	// Resuming from Offset on the completed stream yields the event the
	// tear hid — the tailing contract.
	completed := cat(whole, second)
	d2 := NewDecoder(bytes.NewReader(completed[torn.Offset:]))
	d2.ExpectSeq(2)
	e, err := d2.Next()
	if err != nil || e.Seq != 2 {
		t.Fatalf("resume: got %+v, %v", e, err)
	}
}

func TestDecoderSequenceGap(t *testing.T) {
	data := cat(rec(t, Event{Seq: 1, Kind: KindJoin, Name: "a"}), rec(t, Event{Seq: 3, Kind: KindJoin, Name: "b"}))
	d := NewDecoder(bytes.NewReader(data))
	if _, err := d.Next(); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Next(); err == nil || !strings.Contains(err.Error(), "sequence gap") {
		t.Fatalf("want sequence gap error, got %v", err)
	}
}

func TestDecoderExpectSeq(t *testing.T) {
	data := rec(t, Event{Seq: 5, Kind: KindJoin, Name: "a"})
	d := NewDecoder(bytes.NewReader(data))
	d.ExpectSeq(5)
	if _, err := d.Next(); err != nil {
		t.Fatalf("matching ExpectSeq failed: %v", err)
	}
	d2 := NewDecoder(bytes.NewReader(data))
	d2.ExpectSeq(4)
	if _, err := d2.Next(); err == nil || !strings.Contains(err.Error(), "sequence gap") {
		t.Fatalf("want gap error for wrong first seq, got %v", err)
	}
}

func TestDecoderMidStreamCorruptionIsHard(t *testing.T) {
	data := cat([]byte("garbage not a record\n"), rec(t, Event{Seq: 1, Kind: KindJoin, Name: "a"}))
	d := NewDecoder(bytes.NewReader(data))
	_, err := d.Next()
	if err == nil || errors.Is(err, ErrTornTail) || err == io.EOF {
		t.Fatalf("mid-stream corruption must be a hard error, got %v", err)
	}
}

// TestDecoderRefusesJSONLines: a record starting with '{' is a JSON
// line from an older release — a hard ErrJSONJournal wherever it sits,
// even as the final, malformed record, so recovery never truncates a
// JSON-era log as if it were a torn tail.
func TestDecoderRefusesJSONLines(t *testing.T) {
	var jsonLog bytes.Buffer
	enc := NewEncoderMode(&jsonLog, ModeJSON)
	if err := enc.Encode(Event{Seq: 1, Kind: KindJoin, Name: "a"}); err != nil {
		t.Fatal(err)
	}
	first := rec(t, Event{Seq: 1, Kind: KindJoin, Name: "a"})
	for name, data := range map[string][]byte{
		"json log":          jsonLog.Bytes(),
		"torn json line":    jsonLog.Bytes()[:10],
		"json after binary": cat(first, []byte(`{"seq":2,"kind":"join","name":"b"}`+"\n")),
	} {
		events, err := Read(bytes.NewReader(data))
		if !errors.Is(err, ErrJSONJournal) || errors.Is(err, ErrTornTail) {
			t.Errorf("%s: err = %v, want ErrJSONJournal", name, err)
		}
		if !strings.Contains(fmt.Sprint(err), "itree convert") {
			t.Errorf("%s: error %q does not name itree convert", name, err)
		}
		if events != nil {
			t.Errorf("%s: Read returned %d events alongside a hard error", name, len(events))
		}
	}
}

// TestReadZeroFilledTail: a filesystem that loses unflushed data after
// a power cut can leave the journal's tail zero-filled, at a record
// boundary or inside the last record. Either way Read keeps every
// complete record and reports a torn tail at the last good offset.
func TestReadZeroFilledTail(t *testing.T) {
	good := cat(rec(t, Event{Seq: 1, Kind: KindJoin, Name: "a"}),
		rec(t, Event{Seq: 2, Kind: KindContribute, Name: "a", Amount: 2}))
	third := rec(t, Event{Seq: 3, Kind: KindContribute, Name: "a", Amount: 1})
	zeros := make([]byte, 4096)
	for name, data := range map[string][]byte{
		"at record boundary": cat(good, zeros),
		"inside a record":    cat(good, third[:len(third)/2], zeros),
	} {
		events, err := Read(bytes.NewReader(data))
		var torn *TornTailError
		if !errors.As(err, &torn) {
			t.Fatalf("%s: err = %v, want a torn tail", name, err)
		}
		if torn.Offset != int64(len(good)) {
			t.Fatalf("%s: Offset = %d, want %d", name, torn.Offset, len(good))
		}
		if len(events) != 2 || events[1].Amount != 2 {
			t.Fatalf("%s: events = %+v, want the 2 complete ones", name, events)
		}
	}
}

// TestReadRefusesTruncationOverHiddenRecords: damage that, as parsed,
// runs to the end of the log is still mid-log corruption when a whole
// later record hides in the bytes a repair would cut: a corrupt length
// prefix whose frame runs past EOF, or an unknown tag byte with no
// later newline. Truncating at either would lose record 3.
func TestReadRefusesTruncationOverHiddenRecords(t *testing.T) {
	first := rec(t, Event{Seq: 1, Kind: KindJoin, Name: "ada"})
	second := rec(t, Event{Seq: 2, Kind: KindContribute, Name: "ada", Amount: 2})
	third := rec(t, Event{Seq: 3, Kind: KindJoin, Name: "bo", Sponsor: "ada"})
	if bytes.IndexByte(cat(second, third), '\n') >= 0 {
		t.Fatal("records 2 and 3 hold a newline; the unknown-tag case needs none")
	}
	for name, damage := range map[string]func([]byte){
		"length prefix past EOF": func(r []byte) { r[1] = 0x7f },
		"unknown tag":            func(r []byte) { r[0] = 'Q' },
	} {
		bad := bytes.Clone(second)
		damage(bad)
		events, err := Read(bytes.NewReader(cat(first, bad, third)))
		if err == nil || errors.Is(err, ErrTornTail) || events != nil {
			t.Errorf("%s: Read = %d events, %v; want a hard error", name, len(events), err)
		}
	}
}

// TestReadRepairsTornBatch: a group commit cut anywhere inside its
// write, with or without a zero-filled tail behind the cut, is a torn
// tail at the last whole record.
func TestReadRepairsTornBatch(t *testing.T) {
	var log bytes.Buffer
	w := NewWriter(&log, 1)
	if _, err := appendOne(w, Event{Kind: KindJoin, Name: "ada"}); err != nil {
		t.Fatal(err)
	}
	ends := []int{log.Len()}
	batch, err := w.AppendBatch([]Event{
		{Kind: KindJoin, Name: "bo", Sponsor: "ada"},
		{Kind: KindContribute, Name: "bo", Amount: 3},
		{Kind: KindContribute, Name: "ada", Amount: 1.5},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range batch {
		ends = append(ends, ends[len(ends)-1]+len(rec(t, e)))
	}
	full := log.Bytes()
	for cut := ends[0] + 1; cut < len(full); cut++ {
		whole := 0
		for whole+1 < len(ends) && ends[whole+1] <= cut {
			whole++
		}
		for _, tail := range [][]byte{nil, make([]byte, 64)} {
			if cut == ends[whole] && tail == nil {
				continue // a clean record boundary, not a torn tail
			}
			events, err := Read(bytes.NewReader(cat(full[:cut], tail)))
			var torn *TornTailError
			if !errors.As(err, &torn) || torn.Offset != int64(ends[whole]) || len(events) != whole+1 {
				t.Fatalf("cut at %d (+%d zeros): %d events, %v; want %d events and a torn tail at %d",
					cut, len(tail), len(events), err, whole+1, ends[whole])
			}
		}
	}
}

// TestEncoderMatchesWriterBytes pins the replication invariant: a
// re-encoded event is byte-identical to what the primary's Writer
// appended, so follower-side hashes of applied records equal hashes of
// the primary's journal file.
func TestEncoderMatchesWriterBytes(t *testing.T) {
	events := []Event{
		{Seq: 1, Kind: KindJoin, Name: "a"},
		{Seq: 2, Kind: KindJoin, Name: "b", Sponsor: "a"},
		{Seq: 3, Kind: KindContribute, Name: "b", Amount: 0.1},
		{Seq: 4, Kind: KindContribute, Name: "a", Amount: 1e-9},
	}
	want := encodeAll(t, events)

	// Round-trip: decode the journal bytes, re-encode with Encoder.
	var got bytes.Buffer
	enc := NewEncoder(&got)
	d := NewDecoder(bytes.NewReader(want))
	for {
		e, err := d.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if err := enc.Encode(e); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("re-encoded stream differs from journal bytes:\n got %q\nwant %q", got.Bytes(), want)
	}
}

func TestEncoderRejectsInvalidEvents(t *testing.T) {
	enc := NewEncoder(io.Discard)
	if err := enc.Encode(Event{Seq: 1, Kind: KindContribute, Name: "a", Amount: -1}); err == nil {
		t.Fatal("want validation error for negative amount")
	}
}

func TestEncoderHeartbeatIsSkippedByDecoder(t *testing.T) {
	var buf bytes.Buffer
	enc := NewEncoder(&buf)
	if err := enc.Heartbeat(); err != nil {
		t.Fatal(err)
	}
	if err := enc.Encode(Event{Seq: 1, Kind: KindJoin, Name: "a"}); err != nil {
		t.Fatal(err)
	}
	if err := enc.Heartbeat(); err != nil {
		t.Fatal(err)
	}
	d := NewDecoder(&buf)
	if e, err := d.Next(); err != nil || e.Seq != 1 {
		t.Fatalf("got %+v, %v", e, err)
	}
	if _, err := d.Next(); err != io.EOF {
		t.Fatalf("want io.EOF after trailing heartbeat, got %v", err)
	}
}

// TestReadMatchesDecoder cross-checks the batch reader against the
// incremental one on a log with a torn tail.
func TestReadMatchesDecoder(t *testing.T) {
	third := rec(t, Event{Seq: 3, Kind: KindContribute, Name: "a", Amount: 1})
	data := cat(rec(t, Event{Seq: 1, Kind: KindJoin, Name: "a"}),
		rec(t, Event{Seq: 2, Kind: KindContribute, Name: "a", Amount: 3}), third[:5])
	events, err := Read(bytes.NewReader(data))
	var torn *TornTailError
	if !errors.As(err, &torn) {
		t.Fatalf("want torn tail from Read, got %v", err)
	}
	if len(events) != 2 {
		t.Fatalf("Read returned %d events, want 2", len(events))
	}

	d := NewDecoder(bytes.NewReader(data))
	var incr []Event
	for {
		e, derr := d.Next()
		if derr != nil {
			var dtorn *TornTailError
			if !errors.As(derr, &dtorn) || dtorn.Offset != torn.Offset || dtorn.Line != torn.Line {
				t.Fatalf("decoder end state %v, want torn tail at offset %d record %d", derr, torn.Offset, torn.Line)
			}
			break
		}
		incr = append(incr, e)
	}
	if len(incr) != len(events) {
		t.Fatalf("decoder yielded %d events, Read %d", len(incr), len(events))
	}
	for i := range incr {
		if !incr[i].Equal(events[i]) {
			t.Fatalf("event %d: decoder %+v vs Read %+v", i, incr[i], events[i])
		}
	}
}
