package journal

import (
	"bytes"
	"errors"
	"io"
	"strings"
	"testing"
)

// binaryTestEvents is a small log exercising every kind and both string
// fields.
var binaryTestEvents = []Event{
	{Seq: 1, Kind: KindJoin, Name: "alice"},
	{Seq: 2, Kind: KindJoin, Name: "bob", Sponsor: "alice"},
	{Seq: 3, Kind: KindContribute, Name: "bob", Amount: 2.5},
	{Seq: 4, Kind: KindQuarantine, Name: "bob"},
	{Seq: 5, Kind: KindUnquarantine, Name: "bob"},
	{Seq: 6, Kind: KindContribute, Name: "alice", Amount: 0.125},
}

// TestBinaryRecordRoundTrip: encode → decode through the stream Decoder
// → re-encode must reproduce the bytes exactly (the canonical-encoding
// property replication's rolling hash depends on).
func TestBinaryRecordRoundTrip(t *testing.T) {
	var log bytes.Buffer
	w := NewWriterMode(&log, 1, ModeBinary)
	for _, e := range binaryTestEvents {
		e.Seq = 0 // Writer assigns
		if _, err := appendOne(w, e); err != nil {
			t.Fatal(err)
		}
	}
	first := append([]byte(nil), log.Bytes()...)

	d := NewDecoder(bytes.NewReader(first))
	var reenc bytes.Buffer
	enc := NewEncoderMode(&reenc, ModeBinary)
	n := 0
	for {
		e, err := d.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("decode record %d: %v", n+1, err)
		}
		if !e.Equal(binaryTestEvents[n]) {
			t.Fatalf("record %d = %+v, want %+v", n+1, e, binaryTestEvents[n])
		}
		if err := enc.Encode(e); err != nil {
			t.Fatal(err)
		}
		n++
	}
	if n != len(binaryTestEvents) {
		t.Fatalf("decoded %d events, want %d", n, len(binaryTestEvents))
	}
	if !bytes.Equal(first, reenc.Bytes()) {
		t.Fatalf("re-encoded log differs from original\nfirst: %x\nreenc: %x", first, reenc.Bytes())
	}
	if d.Offset() != int64(len(first)) {
		t.Fatalf("Offset = %d, want %d", d.Offset(), len(first))
	}
}

// TestWriterEncoderByteEquality: a Writer and an Encoder must produce
// identical bytes for the same events — the contract that lets a
// follower hash re-encoded events and match the primary's file.
func TestWriterEncoderByteEquality(t *testing.T) {
	var viaWriter, viaEncoder bytes.Buffer
	w := NewWriter(&viaWriter, 1)
	enc := NewEncoder(&viaEncoder)
	for _, e := range binaryTestEvents {
		e.Seq = 0
		persisted, err := appendOne(w, e)
		if err != nil {
			t.Fatal(err)
		}
		if err := enc.Encode(persisted); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(viaWriter.Bytes(), viaEncoder.Bytes()) {
		t.Fatal("Writer and Encoder bytes differ")
	}
}

// TestNewWriterModeBinaryOnly: a journal Writer appends binary records
// only; asking it for JSON lines is a programming error.
func TestNewWriterModeBinaryOnly(t *testing.T) {
	if w := NewWriterMode(io.Discard, 1, ModeBinary); w == nil {
		t.Fatal("NewWriterMode(ModeBinary) = nil")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("NewWriterMode(ModeJSON) did not panic")
		}
	}()
	NewWriterMode(io.Discard, 1, ModeJSON)
}

// TestBinaryTornTail: truncating a binary log mid-record yields a
// TornTailError whose Offset is the complete-record prefix.
func TestBinaryTornTail(t *testing.T) {
	var log bytes.Buffer
	w := NewWriterMode(&log, 1, ModeBinary)
	var prefixAfter2, prefixAfter3 int
	for i, e := range binaryTestEvents {
		e.Seq = 0
		if _, err := appendOne(w, e); err != nil {
			t.Fatal(err)
		}
		if i == 1 {
			prefixAfter2 = log.Len()
		}
		if i == 2 {
			prefixAfter3 = log.Len()
		}
	}
	// Truncate the log inside the third record, at every possible length.
	full := log.Bytes()
	for cut := prefixAfter2 + 1; cut < prefixAfter3; cut++ {
		events, err := Read(bytes.NewReader(full[:cut]))
		var torn *TornTailError
		if !errors.As(err, &torn) {
			t.Fatalf("cut at %d: err = %v, want torn tail", cut, err)
		}
		if torn.Offset != int64(prefixAfter2) {
			t.Fatalf("cut at %d: Offset = %d, want %d", cut, torn.Offset, prefixAfter2)
		}
		if len(events) != 2 {
			t.Fatalf("cut at %d: %d events survive, want 2", cut, len(events))
		}
	}
}

// TestBinaryCorruptTail: flipping a byte in the final record fails its
// CRC and is classified as a torn tail (repairable); the same flip
// mid-log is a hard error, because a valid record after it proves the
// damage is not an interrupted append.
func TestBinaryCorruptTail(t *testing.T) {
	var log bytes.Buffer
	w := NewWriterMode(&log, 1, ModeBinary)
	offsets := make([]int, 0, len(binaryTestEvents))
	for _, e := range binaryTestEvents {
		e.Seq = 0
		if _, err := appendOne(w, e); err != nil {
			t.Fatal(err)
		}
		offsets = append(offsets, log.Len())
	}
	full := log.Bytes()
	lastStart := offsets[len(offsets)-2]

	// Flip every byte of the final record in turn.
	for i := lastStart; i < len(full); i++ {
		data := append([]byte(nil), full...)
		data[i] ^= 0x40
		events, err := Read(bytes.NewReader(data))
		if err == nil {
			t.Fatalf("flip at %d: corrupt record decoded cleanly", i)
		}
		if !errors.Is(err, ErrTornTail) {
			t.Fatalf("flip at %d: err = %v, want torn tail", i, err)
		}
		var torn *TornTailError
		errors.As(err, &torn)
		if torn.Offset != int64(lastStart) {
			t.Fatalf("flip at %d: Offset = %d, want %d", i, torn.Offset, lastStart)
		}
		if len(events) != len(binaryTestEvents)-1 {
			t.Fatalf("flip at %d: %d events survive, want %d", i, len(events), len(binaryTestEvents)-1)
		}
	}

	// The same flip in a record with valid records behind it must be a
	// hard error, not a repair.
	data := append([]byte(nil), full...)
	data[offsets[1]+6] ^= 0x40 // inside the third record's payload
	if _, err := Read(bytes.NewReader(data)); err == nil || errors.Is(err, ErrTornTail) {
		t.Fatalf("mid-log corruption: err = %v, want hard error", err)
	}
}

// TestBinaryRejectsNonCanonicalVarint: a payload-length or field varint
// padded with a redundant continuation byte must not decode, even with
// a recomputed CRC — one event, one byte representation.
func TestBinaryRejectsNonCanonicalVarint(t *testing.T) {
	rec, err := AppendBinaryRecord(nil, Event{Seq: 1, Kind: KindJoin, Name: "a"})
	if err != nil {
		t.Fatal(err)
	}
	// rec[1] is the one-byte payload length; re-frame with the same
	// payload but a two-byte (non-minimal) length prefix.
	payload := rec[2 : len(rec)-4]
	crc := rec[len(rec)-4:]
	padded := append([]byte{tagBinaryV1, byte(len(payload)) | 0x80, 0x00}, payload...)
	padded = append(padded, crc...)
	if _, err := Read(bytes.NewReader(padded)); err == nil {
		t.Fatal("non-canonical length prefix decoded cleanly")
	}
}

// TestBinaryRejectsOversizedLength: a declared payload length beyond
// maxBinaryPayload must fail without attempting the allocation.
func TestBinaryRejectsOversizedLength(t *testing.T) {
	data := []byte{tagBinaryV1, 0xff, 0xff, 0xff, 0xff, 0x7f} // ~34 GiB
	data = append(data, strings.Repeat("x", 64)...)
	if _, err := Read(bytes.NewReader(data)); err == nil || errors.Is(err, ErrTornTail) {
		t.Fatalf("oversized length with content behind it: err = %v, want hard error", err)
	}
}

// TestParseMode covers the flag-facing parser.
func TestParseMode(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want Mode
		ok   bool
	}{
		{"json", ModeJSON, true},
		{"binary", ModeBinary, true},
		{"ndjson", 0, false},
		{"", 0, false},
	} {
		got, err := ParseMode(tc.in)
		if (err == nil) != tc.ok || got != tc.want {
			t.Errorf("ParseMode(%q) = %v, %v", tc.in, got, err)
		}
	}
	if ModeBinary.String() != "binary" || ModeJSON.String() != "json" {
		t.Error("Mode.String mismatch")
	}
}
