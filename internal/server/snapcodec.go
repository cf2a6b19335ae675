package server

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"

	"incentivetree/internal/journal"
	"incentivetree/internal/tree"
)

// Binary snapshot codec. The JSON snapshot remains the HTTP wire format
// of /v1/snapshot and /v1/restore and the debug/export representation;
// the binary form is what checkpoints write to disk and what a
// follower bootstraps from, because decoding it is a handful of linear
// array scans instead of a million-node recursive JSON unmarshal.
//
// Layout (integers little-endian, varints canonical):
//
//	"ITS1"              4-byte magic
//	byte                version (1, or 2 when settled epochs follow)
//	uvarint             last_seq
//	tree payload        tree.AppendBinary (flat arena arrays)
//	uvarint             number of quarantined names
//	uvarint + bytes     each quarantined name, in the snapshot's
//	                    (sorted) order
//	-- version 2 only --
//	uvarint             number of settled epochs (>= 1)
//	per epoch:          uvarint epoch number
//	                    8-byte LE float64 pool
//	                    8-byte LE float64 ctotal
//	                    uvarint share count, then per share
//	                    uvarint + bytes name, 8-byte LE float64 amount
//	                    uvarint claimant count, then per claimant
//	                    uvarint + bytes name (journal arrival order)
//	-- end version 2 --
//	4-byte LE uint32    CRC-32C of everything before it
//
// A snapshot with no settled epochs is written as version 1, byte for
// byte what older releases produced; version 2 with zero epochs is
// rejected as non-canonical. Both keep the codec's decode∘encode
// identity (FuzzSnapshotRoundTrip). `itree convert` translates between
// this form and the JSON one.

// snapshotMagic marks a binary snapshot file.
var snapshotMagic = []byte("ITS1")

const (
	snapshotVersion       = 1
	snapshotVersionLedger = 2
)

var snapCastagnoli = crc32.MakeTable(crc32.Castagnoli)

// ErrSnapshotCorrupt reports a binary snapshot that failed structural or
// CRC validation.
var ErrSnapshotCorrupt = errors.New("server: corrupt binary snapshot")

// EncodeSnapshotBinary serializes snap in the binary snapshot format.
func EncodeSnapshotBinary(snap *Snapshot) ([]byte, error) {
	if snap.Tree == nil {
		return nil, fmt.Errorf("server: snapshot without tree")
	}
	size := len(snapshotMagic) + 1 + 10 + snap.Tree.BinarySize() + 10 + 4
	for _, q := range snap.Quarantined {
		size += 10 + len(q)
	}
	version := byte(snapshotVersion)
	if len(snap.Epochs) > 0 {
		version = snapshotVersionLedger
		for _, se := range snap.Epochs {
			size += 10 + 8 + 8 + 10 + 10
			for _, r := range se.Rewards {
				size += 10 + len(r.Name) + 8
			}
			for _, c := range se.Claimed {
				size += 10 + len(c)
			}
		}
	}
	buf := make([]byte, 0, size)
	buf = append(buf, snapshotMagic...)
	buf = append(buf, version)
	buf = binary.AppendUvarint(buf, snap.LastSeq)
	buf = snap.Tree.AppendBinary(buf)
	buf = binary.AppendUvarint(buf, uint64(len(snap.Quarantined)))
	for _, q := range snap.Quarantined {
		buf = binary.AppendUvarint(buf, uint64(len(q)))
		buf = append(buf, q...)
	}
	if version == snapshotVersionLedger {
		buf = binary.AppendUvarint(buf, uint64(len(snap.Epochs)))
		for _, se := range snap.Epochs {
			buf = binary.AppendUvarint(buf, se.Epoch)
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(se.Pool))
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(se.CTotal))
			buf = binary.AppendUvarint(buf, uint64(len(se.Rewards)))
			for _, r := range se.Rewards {
				buf = binary.AppendUvarint(buf, uint64(len(r.Name)))
				buf = append(buf, r.Name...)
				buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(r.Amount))
			}
			buf = binary.AppendUvarint(buf, uint64(len(se.Claimed)))
			for _, c := range se.Claimed {
				buf = binary.AppendUvarint(buf, uint64(len(c)))
				buf = append(buf, c...)
			}
		}
	}
	crc := crc32.Checksum(buf, snapCastagnoli)
	buf = binary.LittleEndian.AppendUint32(buf, crc)
	return buf, nil
}

// IsBinarySnapshot reports whether data starts like a binary snapshot.
func IsBinarySnapshot(data []byte) bool {
	return bytes.HasPrefix(data, snapshotMagic)
}

// DecodeSnapshot decodes a binary snapshot. The JSON form is not
// accepted: it is the HTTP wire form, decoded where it arrives.
func DecodeSnapshot(data []byte) (*Snapshot, error) {
	if !IsBinarySnapshot(data) {
		return nil, fmt.Errorf("%w: missing %q magic", ErrSnapshotCorrupt, snapshotMagic)
	}
	if len(data) < len(snapshotMagic)+1+4 {
		return nil, fmt.Errorf("%w: truncated header", ErrSnapshotCorrupt)
	}
	body, tail := data[:len(data)-4], data[len(data)-4:]
	want := binary.LittleEndian.Uint32(tail)
	if got := crc32.Checksum(body, snapCastagnoli); got != want {
		return nil, fmt.Errorf("%w: CRC mismatch (%08x != %08x)", ErrSnapshotCorrupt, got, want)
	}
	off := len(snapshotMagic)
	version := body[off]
	if version != snapshotVersion && version != snapshotVersionLedger {
		return nil, fmt.Errorf("%w: unsupported version %d", ErrSnapshotCorrupt, version)
	}
	off++
	lastSeq, err := snapUvarint(body, &off, "last_seq")
	if err != nil {
		return nil, err
	}
	t, used, err := tree.DecodeBinary(body[off:])
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrSnapshotCorrupt, err)
	}
	off += used
	nq, err := snapUvarint(body, &off, "quarantine count")
	if err != nil {
		return nil, err
	}
	if nq > uint64(len(body)-off) {
		return nil, fmt.Errorf("%w: quarantine count %d overruns input", ErrSnapshotCorrupt, nq)
	}
	var quarantined []string
	for i := uint64(0); i < nq; i++ {
		ln, err := snapUvarint(body, &off, "quarantine name length")
		if err != nil {
			return nil, err
		}
		if ln > uint64(len(body)-off) {
			return nil, fmt.Errorf("%w: truncated quarantine name %d", ErrSnapshotCorrupt, i)
		}
		quarantined = append(quarantined, string(body[off:off+int(ln)]))
		off += int(ln)
	}
	var epochs []journal.SettledEpoch
	if version == snapshotVersionLedger {
		ne, err := snapUvarint(body, &off, "epoch count")
		if err != nil {
			return nil, err
		}
		if ne == 0 {
			// The canonical encoding of an empty ledger is version 1;
			// accepting this shape would break decode∘encode identity.
			return nil, fmt.Errorf("%w: version 2 snapshot with no epochs", ErrSnapshotCorrupt)
		}
		if ne > uint64(len(body)-off) {
			return nil, fmt.Errorf("%w: epoch count %d overruns input", ErrSnapshotCorrupt, ne)
		}
		for i := uint64(0); i < ne; i++ {
			var se journal.SettledEpoch
			if se.Epoch, err = snapUvarint(body, &off, "epoch number"); err != nil {
				return nil, err
			}
			if se.Pool, err = snapFloat(body, &off, "epoch pool"); err != nil {
				return nil, err
			}
			if se.CTotal, err = snapFloat(body, &off, "epoch ctotal"); err != nil {
				return nil, err
			}
			ns, err := snapUvarint(body, &off, "share count")
			if err != nil {
				return nil, err
			}
			if ns > uint64(len(body)-off)/9 {
				return nil, fmt.Errorf("%w: share count %d overruns input", ErrSnapshotCorrupt, ns)
			}
			for j := uint64(0); j < ns; j++ {
				var r journal.RewardShare
				if r.Name, err = snapString(body, &off, "share name"); err != nil {
					return nil, err
				}
				if r.Amount, err = snapFloat(body, &off, "share amount"); err != nil {
					return nil, err
				}
				se.Rewards = append(se.Rewards, r)
			}
			nc, err := snapUvarint(body, &off, "claimant count")
			if err != nil {
				return nil, err
			}
			if nc > uint64(len(body)-off) {
				return nil, fmt.Errorf("%w: claimant count %d overruns input", ErrSnapshotCorrupt, nc)
			}
			for j := uint64(0); j < nc; j++ {
				name, err := snapString(body, &off, "claimant name")
				if err != nil {
					return nil, err
				}
				se.Claimed = append(se.Claimed, name)
			}
			epochs = append(epochs, se)
		}
	}
	if off != len(body) {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrSnapshotCorrupt, len(body)-off)
	}
	return &Snapshot{LastSeq: lastSeq, Tree: t, Quarantined: quarantined, Epochs: epochs}, nil
}

// snapString reads a length-prefixed string at *off.
func snapString(body []byte, off *int, what string) (string, error) {
	ln, err := snapUvarint(body, off, what+" length")
	if err != nil {
		return "", err
	}
	if ln > uint64(len(body)-*off) {
		return "", fmt.Errorf("%w: truncated %s", ErrSnapshotCorrupt, what)
	}
	s := string(body[*off : *off+int(ln)])
	*off += int(ln)
	return s, nil
}

// snapFloat reads an 8-byte little-endian float64 at *off.
func snapFloat(body []byte, off *int, what string) (float64, error) {
	if len(body)-*off < 8 {
		return 0, fmt.Errorf("%w: truncated %s", ErrSnapshotCorrupt, what)
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(body[*off:]))
	*off += 8
	return v, nil
}

// snapUvarint reads a canonical uvarint — non-minimal encodings are
// rejected so that decoding then re-encoding a valid snapshot
// reproduces its bytes exactly (the FuzzSnapshotRoundTrip property).
func snapUvarint(body []byte, off *int, what string) (uint64, error) {
	v, n := binary.Uvarint(body[*off:])
	if n <= 0 {
		return 0, fmt.Errorf("%w: truncated %s", ErrSnapshotCorrupt, what)
	}
	min := 1
	for x := v; x >= 0x80; x >>= 7 {
		min++
	}
	if n != min {
		return 0, fmt.Errorf("%w: non-canonical %s varint", ErrSnapshotCorrupt, what)
	}
	*off += n
	return v, nil
}
