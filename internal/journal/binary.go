package journal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
)

// Binary journal record format. A journal is a byte stream of records,
// each framed on its own. There is deliberately no stream-level header:
// the checkpointer's CompactTo keeps an arbitrary record-boundary
// suffix of the file, replication re-streams records from arbitrary
// offsets, and a follower's rolling hash must equal the hash of the
// primary's file bytes — all three would break if anything but the
// records themselves framed the stream.
//
// Record framing (all integers little-endian, varints canonical):
//
//	0xB1                     tag: binary record, version 1
//	uvarint                  payload length in bytes
//	payload                  see below
//	4-byte LE uint32         CRC-32C (Castagnoli) of the payload
//
// Payload:
//
//	byte                     kind (0 join, 1 contribute, 2 quarantine,
//	                         3 unquarantine, 4 settle, 5 claim)
//	uvarint                  seq
//	uvarint + bytes          name
//	uvarint + bytes          sponsor ("" when absent)
//	8-byte LE float64        amount (0 for kinds that carry none)
//
// Settle and claim records extend the payload after the base fields
// (older decoders reject the unknown kind byte rather than
// misinterpreting the record):
//
//	claim:  uvarint epoch    — name/amount in the base fields are the
//	                           claimant and the claimed share
//	settle: uvarint epoch
//	        8-byte LE float64 pool
//	        8-byte LE float64 ctotal
//	        uvarint           share count
//	        per share:        uvarint + bytes name, 8-byte LE float64
//	                          amount (strictly ascending by name)
//
// A '\n' between records is the replication stream's heartbeat. A
// first byte of '{' marks a JSON-lines record from a journal written
// before binary records became the only on-disk format: decoders refuse
// it (ErrJSONJournal) and `itree convert` migrates the log. Any other
// first byte is corruption.
//
// The encoding is canonical: one event has exactly one binary
// representation, so re-encoding a decoded record reproduces its bytes
// — the property replication's rolling SHA-256 and
// FuzzJournalRecordDecode both depend on.

// Mode selects the format an Encoder writes: the binary journal
// record, or the JSON-lines export form of `itree convert`.
type Mode int

const (
	// ModeJSON writes one JSON object per line: the export and debug
	// representation, and the format of journals from older releases.
	ModeJSON Mode = iota
	// ModeBinary writes length-prefixed CRC-checked binary records, the
	// only format a journal holds.
	ModeBinary
)

// String names the mode as used by `itree convert`.
func (m Mode) String() string {
	switch m {
	case ModeJSON:
		return "json"
	case ModeBinary:
		return "binary"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// ParseMode parses "json" or "binary".
func ParseMode(s string) (Mode, error) {
	switch s {
	case "json":
		return ModeJSON, nil
	case "binary":
		return ModeBinary, nil
	default:
		return 0, fmt.Errorf("journal: unknown format %q (want json or binary)", s)
	}
}

// tagBinaryV1 is the first byte of a version-1 binary record. It is not
// whitespace and not a valid first byte of a JSON value, so a binary
// record, a heartbeat and an old JSON line are told apart by their
// first byte.
const tagBinaryV1 = 0xB1

// maxBinaryPayload bounds the declared payload length, so a corrupt
// length prefix cannot make the decoder allocate gigabytes. Settle
// records carry a whole epoch's share table — roughly 20 bytes per
// participant — so the bound admits tables of a few million entries;
// the stream decoder reads frames in bounded chunks, so a corrupt
// prefix near the bound still cannot force one huge up-front
// allocation.
const maxBinaryPayload = 1 << 26

// castagnoli is the CRC-32C table (the polynomial with hardware support
// on both amd64 and arm64).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

var errBinaryRecord = errors.New("journal: invalid binary record")

func kindToByte(k Kind) (byte, error) {
	switch k {
	case KindJoin:
		return 0, nil
	case KindContribute:
		return 1, nil
	case KindQuarantine:
		return 2, nil
	case KindUnquarantine:
		return 3, nil
	case KindSettle:
		return 4, nil
	case KindClaim:
		return 5, nil
	default:
		return 0, fmt.Errorf("journal: unknown event kind %q", k)
	}
}

func byteToKind(b byte) (Kind, error) {
	switch b {
	case 0:
		return KindJoin, nil
	case 1:
		return KindContribute, nil
	case 2:
		return KindQuarantine, nil
	case 3:
		return KindUnquarantine, nil
	case 4:
		return KindSettle, nil
	case 5:
		return KindClaim, nil
	default:
		return "", fmt.Errorf("unknown kind byte %#x", b)
	}
}

// uvarintLen returns the canonical varint length of v.
func uvarintLen(v uint64) int {
	n := 1
	for v >= 0x80 {
		v >>= 7
		n++
	}
	return n
}

// binaryPayloadSize returns the payload length of e's binary record.
func binaryPayloadSize(e Event) int {
	n := 1 + uvarintLen(e.Seq) +
		uvarintLen(uint64(len(e.Name))) + len(e.Name) +
		uvarintLen(uint64(len(e.Sponsor))) + len(e.Sponsor) + 8
	switch e.Kind {
	case KindClaim:
		n += uvarintLen(e.Epoch)
	case KindSettle:
		n += epochSize(e.Epoch, e.Rewards)
	}
	return n
}

// epochSize returns the length of appendEpoch's bytes.
func epochSize(epoch uint64, rewards []RewardShare) int {
	n := uvarintLen(epoch) + 8 + 8 + uvarintLen(uint64(len(rewards)))
	for _, r := range rewards {
		n += uvarintLen(uint64(len(r.Name))) + len(r.Name) + 8
	}
	return n
}

// AppendBinaryRecord appends the framed binary encoding of e to dst.
// The event must already carry its sequence number and validate.
func AppendBinaryRecord(dst []byte, e Event) ([]byte, error) {
	if err := e.Validate(); err != nil {
		return dst, err
	}
	kb, err := kindToByte(e.Kind)
	if err != nil {
		return dst, err
	}
	dst = append(dst, tagBinaryV1)
	dst = binary.AppendUvarint(dst, uint64(binaryPayloadSize(e)))
	start := len(dst)
	dst = append(dst, kb)
	dst = binary.AppendUvarint(dst, e.Seq)
	dst = binary.AppendUvarint(dst, uint64(len(e.Name)))
	dst = append(dst, e.Name...)
	dst = binary.AppendUvarint(dst, uint64(len(e.Sponsor)))
	dst = append(dst, e.Sponsor...)
	dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(e.Amount))
	switch e.Kind {
	case KindClaim:
		dst = binary.AppendUvarint(dst, e.Epoch)
	case KindSettle:
		dst = appendEpoch(dst, SettledEpoch{Epoch: e.Epoch, Pool: e.Pool, CTotal: e.CTotal, Rewards: e.Rewards})
	}
	crc := crc32.Checksum(dst[start:], castagnoli)
	dst = binary.LittleEndian.AppendUint32(dst, crc)
	return dst, nil
}

// appendEpoch appends the bytes a settle record and a snapshot both
// carry for a settled epoch: epoch, pool, ctotal, then the share
// table. A snapshot writes the claimants after them.
func appendEpoch(dst []byte, se SettledEpoch) []byte {
	dst = binary.AppendUvarint(dst, se.Epoch)
	dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(se.Pool))
	dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(se.CTotal))
	dst = binary.AppendUvarint(dst, uint64(len(se.Rewards)))
	for _, r := range se.Rewards {
		dst = binary.AppendUvarint(dst, uint64(len(r.Name)))
		dst = append(dst, r.Name...)
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(r.Amount))
	}
	return dst
}

// readEpoch parses what appendEpoch wrote at *off. It only parses: the
// caller validates what it read.
func readEpoch(p []byte, off *int) (SettledEpoch, error) {
	var se SettledEpoch
	var err error
	if se.Epoch, err = readUvarint(p, off, "epoch"); err != nil {
		return se, err
	}
	if se.Pool, err = readFloat(p, off, "pool"); err != nil {
		return se, err
	}
	if se.CTotal, err = readFloat(p, off, "ctotal"); err != nil {
		return se, err
	}
	count, err := readUvarint(p, off, "share count")
	if err != nil {
		return se, err
	}
	// Every share takes at least 9 bytes, so a corrupt count cannot
	// pre-allocate more than the input itself.
	if count > uint64(len(p)-*off)/9 {
		return se, fmt.Errorf("share count %d overruns input", count)
	}
	if count > 0 {
		se.Rewards = make([]RewardShare, 0, count)
	}
	for i := uint64(0); i < count; i++ {
		var r RewardShare
		if r.Name, err = readString(p, off, "share name"); err != nil {
			return se, err
		}
		if r.Amount, err = readFloat(p, off, "share amount"); err != nil {
			return se, err
		}
		se.Rewards = append(se.Rewards, r)
	}
	return se, nil
}

// decodeBinaryPayload decodes (and validates) the payload of a binary
// record whose CRC already checked out.
func decodeBinaryPayload(p []byte) (Event, error) {
	e, err := parseBinaryPayload(p)
	if err != nil {
		return Event{}, fmt.Errorf("%w: %v", errBinaryRecord, err)
	}
	if err := e.Validate(); err != nil {
		return Event{}, err
	}
	return e, nil
}

// parseBinaryPayload parses a record's payload without validating it.
func parseBinaryPayload(p []byte) (Event, error) {
	off := 0
	if len(p) == 0 {
		return Event{}, errors.New("empty payload")
	}
	kind, err := byteToKind(p[0])
	if err != nil {
		return Event{}, err
	}
	off++
	seq, err := readUvarint(p, &off, "seq")
	if err != nil {
		return Event{}, err
	}
	name, err := readString(p, &off, "name")
	if err != nil {
		return Event{}, err
	}
	sponsor, err := readString(p, &off, "sponsor")
	if err != nil {
		return Event{}, err
	}
	amount, err := readFloat(p, &off, "amount")
	if err != nil {
		return Event{}, err
	}
	e := Event{Seq: seq, Kind: kind, Name: name, Sponsor: sponsor, Amount: amount}
	switch kind {
	case KindClaim:
		if e.Epoch, err = readUvarint(p, &off, "epoch"); err != nil {
			return Event{}, err
		}
	case KindSettle:
		se, err := readEpoch(p, &off)
		if err != nil {
			return Event{}, err
		}
		e.Epoch, e.Pool, e.CTotal, e.Rewards = se.Epoch, se.Pool, se.CTotal, se.Rewards
	}
	if off != len(p) {
		return Event{}, errors.New("payload length mismatch")
	}
	return e, nil
}

// readFloat decodes an 8-byte little-endian float64 at *off.
func readFloat(p []byte, off *int, what string) (float64, error) {
	if len(p)-*off < 8 {
		return 0, fmt.Errorf("truncated %s", what)
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(p[*off:]))
	*off += 8
	return v, nil
}

// readUvarint decodes a canonical uvarint at *off. Non-minimal
// encodings are rejected so decode∘encode is the identity on valid
// records.
func readUvarint(p []byte, off *int, what string) (uint64, error) {
	v, n := binary.Uvarint(p[*off:])
	if n <= 0 {
		return 0, fmt.Errorf("truncated %s varint", what)
	}
	if n != uvarintLen(v) {
		return 0, fmt.Errorf("non-canonical %s varint", what)
	}
	*off += n
	return v, nil
}

// readString decodes a length-prefixed string at *off.
func readString(p []byte, off *int, what string) (string, error) {
	n, err := readUvarint(p, off, what+" length")
	if err != nil {
		return "", err
	}
	if n > uint64(len(p)-*off) {
		return "", fmt.Errorf("%s overruns input", what)
	}
	s := string(p[*off : *off+int(n)])
	*off += int(n)
	return s, nil
}
