package journal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"sort"

	"incentivetree/internal/tree"
)

// Snapshot is a campaign's whole state at one seq: what a checkpoint
// writes, what a follower bootstraps from, and, as JSON, the body of
// /v1/snapshot and /v1/restore.
type Snapshot struct {
	// LastSeq is the journal sequence number the snapshot includes
	// (0 when no journal is attached).
	LastSeq uint64 `json:"last_seq"`
	// Tree is the full referral tree with labels and contributions.
	Tree *tree.Tree `json:"tree"`
	// Quarantined lists the payout-quarantine flags in force, sorted by
	// name. Absent in pre-quarantine snapshots, which decode as none.
	Quarantined []string `json:"quarantined,omitempty"`
	// Epochs holds the settled payout epochs, oldest first. Absent in
	// pre-settlement snapshots, which decode as an empty ledger — and
	// absent when the ledger is empty, so those snapshots' bytes stay
	// identical to older releases.
	Epochs []SettledEpoch `json:"epochs,omitempty"`
}

// Snapshot copies the state into a Snapshot that shares nothing with
// it.
func (st *State) Snapshot() Snapshot {
	return Snapshot{LastSeq: st.LastSeq, Tree: st.Tree.Clone(), Quarantined: st.QuarantinedNames(), Epochs: st.Ledger.Snapshot()}
}

// QuarantinedNames returns the quarantined names, sorted (nil for
// none).
func (st *State) QuarantinedNames() []string {
	if len(st.Quarantined) == 0 {
		return nil
	}
	names := make([]string, 0, len(st.Quarantined))
	for n := range st.Quarantined {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// StateFromSnapshot validates a snapshot and builds the state it
// holds, which takes over snap.Tree. Participant names must be unique,
// every quarantined or settled name must be a participant, and the
// ledger must pass the checks replay makes (see LedgerFromEpochs).
func StateFromSnapshot(snap Snapshot) (*State, error) {
	t := snap.Tree
	if t == nil {
		return nil, errors.New("journal: snapshot without tree")
	}
	if err := t.Validate(); err != nil {
		return nil, fmt.Errorf("journal: snapshot invalid: %w", err)
	}
	st := &State{Tree: t, ByName: make(map[string]tree.NodeID, t.NumParticipants()), LastSeq: snap.LastSeq, Quarantined: make(map[string]bool)}
	for _, u := range t.Nodes() {
		name := t.Label(u)
		if _, dup := st.ByName[name]; dup {
			return nil, fmt.Errorf("journal: duplicate participant name %q in snapshot", name)
		}
		st.ByName[name] = u
	}
	for _, name := range snap.Quarantined {
		if _, ok := st.ByName[name]; !ok {
			return nil, fmt.Errorf("journal: snapshot quarantines unknown participant %q", name)
		}
		st.Quarantined[name] = true
	}
	for _, se := range snap.Epochs {
		for _, r := range se.Rewards {
			if _, ok := st.ByName[r.Name]; !ok {
				return nil, fmt.Errorf("journal: snapshot epoch %d settles unknown participant %q", se.Epoch, r.Name)
			}
		}
	}
	ledger, err := LedgerFromEpochs(snap.Epochs)
	if err != nil {
		return nil, fmt.Errorf("journal: snapshot ledger: %w", err)
	}
	st.Ledger = ledger
	return st, nil
}

// Binary snapshot codec: what checkpoints write to disk and what a
// follower bootstraps from, because decoding it is a handful of linear
// array scans instead of a million-node recursive JSON unmarshal. The
// JSON form of Snapshot stays the HTTP wire form of /v1/snapshot and
// /v1/restore and the export form of `itree convert`.
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
//	per epoch:          the settle record's epoch fields (appendEpoch):
//	                    uvarint epoch number, 8-byte LE float64 pool,
//	                    8-byte LE float64 ctotal, uvarint share count,
//	                    then per share uvarint + bytes name and
//	                    8-byte LE float64 amount
//	                    uvarint claimant count, then per claimant
//	                    uvarint + bytes name (journal arrival order)
//	-- end version 2 --
//	4-byte LE uint32    CRC-32C of everything before it
//
// A snapshot with no settled epochs is written as version 1, byte for
// byte what older releases produced; version 2 with zero epochs is
// rejected as non-canonical. Both keep the codec's decode∘encode
// identity (FuzzSnapshotRoundTrip).

// snapshotMagic marks a binary snapshot file.
var snapshotMagic = []byte("ITS1")

const (
	snapshotVersion       = 1
	snapshotVersionLedger = 2
)

// ErrSnapshotCorrupt reports a binary snapshot that failed structural or
// CRC validation.
var ErrSnapshotCorrupt = errors.New("journal: corrupt binary snapshot")

// EncodeSnapshot serializes snap in the binary snapshot format.
func EncodeSnapshot(snap *Snapshot) ([]byte, error) {
	if snap.Tree == nil {
		return nil, errors.New("journal: snapshot without tree")
	}
	size := len(snapshotMagic) + 1 + 10 + snap.Tree.BinarySize() + 10 + 4
	for _, q := range snap.Quarantined {
		size += 10 + len(q)
	}
	version := byte(snapshotVersion)
	if len(snap.Epochs) > 0 {
		version = snapshotVersionLedger
		size += 10
		for _, se := range snap.Epochs {
			size += epochSize(se.Epoch, se.Rewards) + 10
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
	buf = appendStrings(buf, snap.Quarantined)
	if version == snapshotVersionLedger {
		buf = binary.AppendUvarint(buf, uint64(len(snap.Epochs)))
		for _, se := range snap.Epochs {
			buf = appendEpoch(buf, se)
			buf = appendStrings(buf, se.Claimed)
		}
	}
	crc := crc32.Checksum(buf, castagnoli)
	return binary.LittleEndian.AppendUint32(buf, crc), nil
}

// appendStrings appends a count, then each string length-prefixed.
func appendStrings(dst []byte, ss []string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(ss)))
	for _, s := range ss {
		dst = binary.AppendUvarint(dst, uint64(len(s)))
		dst = append(dst, s...)
	}
	return dst
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
	if got := crc32.Checksum(body, castagnoli); got != want {
		return nil, fmt.Errorf("%w: CRC mismatch (%08x != %08x)", ErrSnapshotCorrupt, got, want)
	}
	snap, err := parseSnapshot(body)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrSnapshotCorrupt, err)
	}
	return snap, nil
}

// parseSnapshot parses a snapshot body whose CRC checked out.
func parseSnapshot(body []byte) (*Snapshot, error) {
	off := len(snapshotMagic)
	version := body[off]
	if version != snapshotVersion && version != snapshotVersionLedger {
		return nil, fmt.Errorf("unsupported version %d", version)
	}
	off++
	lastSeq, err := readUvarint(body, &off, "last_seq")
	if err != nil {
		return nil, err
	}
	t, used, err := tree.DecodeBinary(body[off:])
	if err != nil {
		return nil, err
	}
	off += used
	snap := &Snapshot{LastSeq: lastSeq, Tree: t}
	if snap.Quarantined, err = readStrings(body, &off, "quarantined name"); err != nil {
		return nil, err
	}
	if version == snapshotVersionLedger {
		ne, err := readUvarint(body, &off, "epoch count")
		if err != nil {
			return nil, err
		}
		if ne == 0 {
			// The canonical encoding of an empty ledger is version 1;
			// accepting this shape would break decode∘encode identity.
			return nil, errors.New("version 2 snapshot with no epochs")
		}
		if ne > uint64(len(body)-off) {
			return nil, fmt.Errorf("epoch count %d overruns input", ne)
		}
		for i := uint64(0); i < ne; i++ {
			se, err := readEpoch(body, &off)
			if err != nil {
				return nil, err
			}
			if se.Claimed, err = readStrings(body, &off, "claimant name"); err != nil {
				return nil, err
			}
			snap.Epochs = append(snap.Epochs, se)
		}
	}
	if off != len(body) {
		return nil, fmt.Errorf("%d trailing bytes", len(body)-off)
	}
	return snap, nil
}

// readStrings parses what appendStrings wrote at *off (nil for none).
func readStrings(p []byte, off *int, what string) ([]string, error) {
	n, err := readUvarint(p, off, what+" count")
	if err != nil {
		return nil, err
	}
	if n > uint64(len(p)-*off) {
		return nil, fmt.Errorf("%s count %d overruns input", what, n)
	}
	var ss []string
	for i := uint64(0); i < n; i++ {
		s, err := readString(p, off, what)
		if err != nil {
			return nil, err
		}
		ss = append(ss, s)
	}
	return ss, nil
}
