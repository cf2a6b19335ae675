package journal

import (
	"bytes"
	"io"
	"testing"
)

// FuzzJournalRecordDecode throws arbitrary bytes at the stream decoder
// and checks the two safety properties of the binary codec:
//
//  1. No input panics or decodes into an invalid event — corruption is
//     always rejected with an error.
//  2. Decoding is canonical: any binary record the decoder accepts
//     re-encodes to exactly the bytes it was decoded from (the property
//     replication's rolling SHA-256 depends on).
func FuzzJournalRecordDecode(f *testing.F) {
	// Valid records of every kind, plus a log with a heartbeat.
	for _, e := range []Event{
		{Seq: 1, Kind: KindJoin, Name: "alice"},
		{Seq: 2, Kind: KindJoin, Name: "bob", Sponsor: "alice"},
		{Seq: 3, Kind: KindContribute, Name: "bob", Amount: 2.5},
		{Seq: 4, Kind: KindQuarantine, Name: "bob"},
		{Seq: 5, Kind: KindUnquarantine, Name: "bob"},
	} {
		rec, err := AppendBinaryRecord(nil, e)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(rec)
	}
	var log bytes.Buffer
	w := NewWriter(&log, 1)
	appendOne(w, Event{Kind: KindJoin, Name: "a"})
	log.WriteString("\n")
	appendOne(w, Event{Kind: KindContribute, Name: "a", Amount: 1})
	f.Add(log.Bytes())
	// Adversarial shapes: bare tag, tag + huge length, truncated frames.
	f.Add([]byte{tagBinaryV1})
	f.Add([]byte{tagBinaryV1, 0xff, 0xff, 0xff, 0xff, 0x7f})
	f.Add([]byte{tagBinaryV1, 0x05, 0x00, 0x01})

	f.Fuzz(checkDecodeRoundTrip)
}

// checkDecodeRoundTrip is the shared fuzz body of the record-decode
// targets: no input panics or decodes into an invalid event, and every
// accepted record re-encodes to exactly the bytes it was decoded from.
func checkDecodeRoundTrip(t *testing.T, data []byte) {
	d := NewDecoder(bytes.NewReader(data))
	var start int64
	for {
		e, err := d.Next()
		if err != nil {
			// io.EOF, torn tail, or hard corruption — all fine; the
			// decoder just must not accept garbage or panic.
			return
		}
		if verr := e.Validate(); verr != nil {
			t.Fatalf("decoder returned invalid event %+v: %v", e, verr)
		}
		consumed := data[start:d.Offset()]
		start = d.Offset()
		// Strip heartbeat bytes the decoder skipped before the record.
		rec := consumed[bytes.IndexByte(consumed, tagBinaryV1):]
		reenc, err := AppendBinaryRecord(nil, e)
		if err != nil {
			t.Fatalf("accepted event failed to re-encode: %v", err)
		}
		if !bytes.Equal(rec, reenc) {
			t.Fatalf("decode∘encode not identity:\nin:  %x\nout: %x", rec, reenc)
		}
	}
}

// FuzzEventConstructive drives the encoder from arbitrary field values:
// every event that validates must round-trip exactly through the binary
// codec via the stream decoder.
func FuzzEventConstructive(f *testing.F) {
	f.Add(uint8(0), uint64(1), "alice", "", 0.0)
	f.Add(uint8(1), uint64(7), "bob", "alice", 3.5)
	f.Add(uint8(2), uint64(9), "x", "", 0.0)
	f.Fuzz(func(t *testing.T, kindByte uint8, seq uint64, name, sponsor string, amount float64) {
		kind, err := byteToKind(kindByte)
		if err != nil {
			return
		}
		e := Event{Seq: seq, Kind: kind, Name: name, Sponsor: sponsor, Amount: amount}
		if e.Validate() != nil {
			return
		}
		rec, err := AppendBinaryRecord(nil, e)
		if err != nil {
			t.Fatalf("valid event failed to encode: %v", err)
		}
		d := NewDecoder(bytes.NewReader(rec))
		if seq > 0 {
			d.ExpectSeq(seq)
		}
		got, err := d.Next()
		if err != nil {
			t.Fatalf("encoded event failed to decode: %v", err)
		}
		if !got.Equal(e) {
			t.Fatalf("round trip changed event: %+v != %+v", got, e)
		}
		if _, err := d.Next(); err != io.EOF {
			t.Fatalf("trailing bytes after one record: %v", err)
		}
	})
}
