package journal

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
)

// Decoder incrementally decodes journal events from a byte stream of
// binary records (see binary.go for the framing). Where Read
// materializes a whole log, a Decoder yields one event per Next call
// and tracks the byte offset of the last complete record, so callers
// can tail a live journal (or a replication stream) and resume from
// where they stopped: seek the underlying file to Offset and build a
// fresh Decoder.
//
// Next returns io.EOF when the stream ends at a record boundary and a
// *TornTailError (matching ErrTornTail) when it ends mid-record — on a
// live file that usually means a concurrent append is in flight, not
// corruption, and the caller retries from Offset. A failed CRC or
// malformed record with further content behind it is mid-log corruption
// and stays a hard error, as does damage that runs to the end yet hides
// a whole later record, and a JSON-lines record (ErrJSONJournal).
// Blank lines are skipped: a replication stream uses them as
// heartbeats. A Decoder that returned any error must not be reused; its
// buffered reader may have consumed bytes past Offset.
type Decoder struct {
	br     *bufio.Reader
	offset int64 // byte length of the consumed complete-record prefix
	line   int   // 1-based number of the last record seen
	last   uint64
	next   uint64 // expected seq of the next event; 0 = accept any
}

// ErrJSONJournal reports a record that starts with '{': a JSON-lines
// journal written before binary records became the only on-disk
// format. It is never a torn tail — a torn binary record starts with
// its tag byte — so recovery refuses the log instead of truncating it.
var ErrJSONJournal = errors.New("journal: JSON-lines record from an older release")

// NewDecoder wraps r.
func NewDecoder(r io.Reader) *Decoder {
	return &Decoder{br: bufio.NewReader(r)}
}

// ExpectSeq arms the continuity check before the first event: Next
// fails unless the first decoded event carries exactly seq. Subsequent
// events must always be contiguous, with or without ExpectSeq.
func (d *Decoder) ExpectSeq(seq uint64) { d.next = seq }

// Offset returns the byte length of the stream prefix consumed as
// complete records (including blank lines). After a torn tail this is
// the position to truncate at, or to resume tailing from.
func (d *Decoder) Offset() int64 { return d.offset }

// Next decodes and returns the next event.
func (d *Decoder) Next() (Event, error) {
	for {
		head, err := d.br.Peek(1)
		if err == io.EOF {
			return Event{}, io.EOF
		}
		if err != nil {
			return Event{}, fmt.Errorf("journal: scan: %w", err)
		}
		switch c := head[0]; c {
		case '\n', '\r', ' ', '\t':
			// Heartbeat / blank-line bytes between records.
			if _, err := d.br.ReadByte(); err != nil {
				return Event{}, fmt.Errorf("journal: scan: %w", err)
			}
			d.offset++
			continue
		case tagBinaryV1:
			return d.nextBinary()
		case '{':
			return Event{}, fmt.Errorf("%w at record %d, byte %d; migrate the log with `itree convert -kind journal -to binary`",
				ErrJSONJournal, d.line+1, d.offset)
		default:
			return d.nextUnknown(c)
		}
	}
}

// nextUnknown classifies bytes that start no record. The rest of their
// line is a torn tail when nothing but whitespace or zero bytes follows
// it (an interrupted append, or a zero-filled tail after power loss),
// and mid-log corruption otherwise.
func (d *Decoder) nextUnknown(c byte) (Event, error) {
	d.line++
	cause := fmt.Errorf("%w: unknown record tag %#x", errBinaryRecord, c)
	line, err := d.br.ReadBytes('\n')
	switch {
	case err != nil && err != io.EOF:
		return Event{}, fmt.Errorf("journal: scan: %w", err)
	case err == io.EOF || !hasContent(d.br):
		return Event{}, d.tornTail(line, cause)
	default:
		return Event{}, fmt.Errorf("journal: record %d: %w", d.line, cause)
	}
}

// tornTail classifies damage that starts at Offset and runs to the end
// of the stream; rest holds its bytes, less any trailing whitespace
// and zeros. It is a torn tail, repaired by truncating at Offset,
// unless a whole record with a seq above the last good one decodes
// somewhere in rest: then a corrupt tag or length prefix hides live
// records, which a truncation would destroy, and the damage is
// mid-log corruption.
func (d *Decoder) tornTail(rest []byte, cause error) error {
	for i := 1; i < len(rest); i++ {
		if e, ok := recordAt(rest[i:]); ok && e.Seq > d.last {
			return fmt.Errorf("journal: record %d: %w, yet record seq %d follows whole at byte %d",
				d.line, cause, e.Seq, d.offset+int64(i))
		}
	}
	return &TornTailError{Offset: d.offset, Line: d.line, Cause: cause}
}

// recordAt decodes the binary record at the start of b, if b starts
// with a whole one: tag, canonical length, payload and matching CRC.
func recordAt(b []byte) (Event, bool) {
	if len(b) == 0 || b[0] != tagBinaryV1 {
		return Event{}, false
	}
	plen, n := binary.Uvarint(b[1:])
	if n <= 0 || n != uvarintLen(plen) || plen > maxBinaryPayload || uint64(len(b)-1-n) < plen+4 {
		return Event{}, false
	}
	payload, sum := b[1+n:1+n+int(plen)], b[1+n+int(plen):]
	if crc32.Checksum(payload, castagnoli) != binary.LittleEndian.Uint32(sum) {
		return Event{}, false
	}
	e, err := decodeBinaryPayload(payload)
	return e, err == nil
}

// checkSeq enforces sequence contiguity and records e as consumed.
func (d *Decoder) checkSeq(e Event) error {
	if d.last > 0 && e.Seq != d.last+1 {
		return fmt.Errorf("journal: sequence gap: %d after %d", e.Seq, d.last)
	}
	if d.last == 0 && d.next != 0 && e.Seq != d.next {
		return fmt.Errorf("journal: sequence gap: stream starts at %d, want %d", e.Seq, d.next)
	}
	d.last = e.Seq
	return nil
}

// nextBinary consumes one framed binary record. The tag byte has been
// peeked but not consumed.
func (d *Decoder) nextBinary() (Event, error) {
	d.line++
	if _, err := d.br.ReadByte(); err != nil { // tag
		return Event{}, fmt.Errorf("journal: scan: %w", err)
	}
	plen, n, err := readStreamUvarint(d.br)
	if err != nil {
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			// Nothing follows the partial prefix to search.
			return Event{}, d.tornTail(nil, fmt.Errorf("%w: truncated length prefix", errBinaryRecord))
		}
		return Event{}, fmt.Errorf("journal: record %d: %w", d.line, err)
	}
	// fail hands tornTail the record's bytes up to the end of frame:
	// readStreamUvarint takes only canonical varints, so re-encoding
	// plen gives back the bytes it read.
	fail := func(cause error, frame []byte) (Event, error) {
		raw := binary.AppendUvarint([]byte{tagBinaryV1}, plen)
		return Event{}, d.tornTail(append(raw, frame...), cause)
	}
	if plen > maxBinaryPayload {
		// A length this large is a corrupt prefix, not a real record;
		// classify by whether the stream ends here like any other
		// malformed record.
		cause := fmt.Errorf("%w: declared payload of %d bytes", errBinaryRecord, plen)
		if !hasContent(d.br) {
			return fail(cause, nil)
		}
		return Event{}, fmt.Errorf("journal: record %d: %w", d.line, cause)
	}
	frame, err := readFrame(d.br, int(plen)+4) // payload + CRC
	if err != nil {
		return fail(fmt.Errorf("%w: truncated record: %v", errBinaryRecord, err), frame)
	}
	payload, sum := frame[:plen], binary.LittleEndian.Uint32(frame[plen:])
	var decErr error
	var e Event
	if got := crc32.Checksum(payload, castagnoli); got != sum {
		decErr = fmt.Errorf("%w: CRC mismatch (%08x != %08x)", errBinaryRecord, got, sum)
	} else {
		e, decErr = decodeBinaryPayload(payload)
	}
	switch {
	case decErr == nil:
		if err := d.checkSeq(e); err != nil {
			return Event{}, err
		}
		d.offset += int64(1 + n + len(frame))
		return e, nil
	case !hasContent(d.br):
		// The damaged record is the last thing in the stream: a torn
		// tail (crash mid-append), repairable by truncating at Offset.
		return fail(decErr, frame)
	default:
		return Event{}, fmt.Errorf("journal: record %d: %w", d.line, decErr)
	}
}

// readFrame reads exactly n bytes from br, returning what it read
// before an error too. Large frames are read via a growing buffer
// rather than one up-front allocation, so a corrupt length prefix just
// under maxBinaryPayload cannot force a 64 MiB allocation for a stream
// that ends after a handful of bytes.
func readFrame(br *bufio.Reader, n int) ([]byte, error) {
	const eager = 64 << 10
	if n <= eager {
		buf := make([]byte, n)
		got, err := io.ReadFull(br, buf)
		return buf[:got], err
	}
	var buf bytes.Buffer
	buf.Grow(eager)
	_, err := io.CopyN(&buf, br, int64(n))
	if err == io.EOF {
		err = io.ErrUnexpectedEOF
	}
	return buf.Bytes(), err
}

// readStreamUvarint reads a canonical uvarint from br, returning the
// value and the number of bytes consumed.
func readStreamUvarint(br *bufio.Reader) (uint64, int, error) {
	var v uint64
	var n int
	for shift := uint(0); ; shift += 7 {
		b, err := br.ReadByte()
		if err != nil {
			if err == io.EOF && n > 0 {
				err = io.ErrUnexpectedEOF
			}
			return 0, n, err
		}
		n++
		if n > binary.MaxVarintLen64 || (shift == 63 && b > 1) {
			return 0, n, fmt.Errorf("%w: varint overflow", errBinaryRecord)
		}
		v |= uint64(b&0x7f) << shift
		if b < 0x80 {
			if n != uvarintLen(v) {
				return 0, n, fmt.Errorf("%w: non-canonical varint", errBinaryRecord)
			}
			return v, n, nil
		}
	}
}

// Encoder writes already-sequenced events in the exact on-disk journal
// format, byte for byte (a Writer produces identical output for the
// same event). Unlike Writer it assigns no sequence numbers and takes
// no lock: it is the wire half of replication, re-encoding events that
// were already committed by a primary's Writer. Not safe for concurrent
// use.
type Encoder struct {
	w    io.Writer
	mode Mode
	buf  []byte
}

// NewEncoder wraps w, encoding binary records.
func NewEncoder(w io.Writer) *Encoder { return NewEncoderMode(w, ModeBinary) }

// NewEncoderMode wraps w, encoding in the given mode. ModeJSON writes
// the JSON-lines export form (see `itree convert`); no reader in the
// daemon accepts it.
func NewEncoderMode(w io.Writer, m Mode) *Encoder { return &Encoder{w: w, mode: m} }

// Encode validates e and writes it as one record.
func (enc *Encoder) Encode(e Event) error {
	data, err := appendRecord(enc.buf[:0], e, enc.mode)
	if err != nil {
		return err
	}
	enc.buf = data[:0] // retain the grown buffer
	if _, err := enc.w.Write(data); err != nil {
		return fmt.Errorf("journal: write: %w", err)
	}
	return nil
}

// Heartbeat writes a blank line. Decoders skip it; replication
// streams send one periodically while idle so intermediaries keep the
// connection alive.
func (enc *Encoder) Heartbeat() error {
	if _, err := io.WriteString(enc.w, "\n"); err != nil {
		return fmt.Errorf("journal: write: %w", err)
	}
	return nil
}

// appendRecord appends the encoding of e in the given mode: a binary
// journal record, or a JSON export line.
func appendRecord(dst []byte, e Event, mode Mode) ([]byte, error) {
	switch mode {
	case ModeBinary:
		return AppendBinaryRecord(dst, e)
	default:
		if err := e.Validate(); err != nil {
			return dst, err
		}
		data, err := json.Marshal(e)
		if err != nil {
			return dst, fmt.Errorf("journal: encode: %w", err)
		}
		dst = append(dst, data...)
		return append(dst, '\n'), nil
	}
}
