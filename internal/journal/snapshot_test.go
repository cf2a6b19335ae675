package journal

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"hash/crc32"
	"testing"

	"incentivetree/internal/tree"
)

// snapTestSnapshot builds a snapshot with labels, contributions, and a
// quarantine set — every field the codec carries.
func snapTestSnapshot(t *testing.T) *Snapshot {
	t.Helper()
	tr := tree.New()
	a, _ := tr.Add(tree.Root, 0)
	b, _ := tr.Add(a, 0)
	c, _ := tr.Add(a, 0)
	d, _ := tr.Add(b, 0)
	for id, name := range map[tree.NodeID]string{a: "alice", b: "bob", c: "carol", d: "dave"} {
		if err := tr.SetLabel(id, name); err != nil {
			t.Fatal(err)
		}
	}
	if err := tr.SetContribution(b, 2.5); err != nil {
		t.Fatal(err)
	}
	if err := tr.SetContribution(d, 0.125); err != nil {
		t.Fatal(err)
	}
	return &Snapshot{LastSeq: 42, Tree: tr, Quarantined: []string{"bob", "dave"}}
}

// TestSnapshotBinaryRoundTrip: encode → decode must reproduce the
// state, and re-encoding the decoded snapshot must reproduce the bytes
// (the canonical-encoding property the fuzz target checks at scale).
func TestSnapshotBinaryRoundTrip(t *testing.T) {
	snap := snapTestSnapshot(t)
	data, err := EncodeSnapshot(snap)
	if err != nil {
		t.Fatal(err)
	}
	if !IsBinarySnapshot(data) {
		t.Fatal("encoded snapshot does not carry the binary magic")
	}
	got, err := DecodeSnapshot(data)
	if err != nil {
		t.Fatal(err)
	}
	if got.LastSeq != snap.LastSeq {
		t.Fatalf("LastSeq = %d, want %d", got.LastSeq, snap.LastSeq)
	}
	if got.Tree.CanonicalString() != snap.Tree.CanonicalString() {
		t.Fatalf("tree mismatch:\n%s\nwant\n%s", got.Tree.CanonicalString(), snap.Tree.CanonicalString())
	}
	for _, u := range snap.Tree.Nodes() {
		if got.Tree.Label(u) != snap.Tree.Label(u) {
			t.Fatalf("label of %d = %q, want %q", u, got.Tree.Label(u), snap.Tree.Label(u))
		}
	}
	if len(got.Quarantined) != 2 || got.Quarantined[0] != "bob" || got.Quarantined[1] != "dave" {
		t.Fatalf("Quarantined = %v", got.Quarantined)
	}
	reenc, err := EncodeSnapshot(got)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, reenc) {
		t.Fatal("re-encoding a decoded snapshot changed its bytes")
	}
}

// TestDecodeSnapshotRejectsJSON: the JSON form is the HTTP wire form
// only; as a snapshot file it is refused, not decoded.
func TestDecodeSnapshotRejectsJSON(t *testing.T) {
	jsonData, err := json.Marshal(snapTestSnapshot(t))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeSnapshot(jsonData); !errors.Is(err, ErrSnapshotCorrupt) {
		t.Fatalf("err = %v, want ErrSnapshotCorrupt", err)
	}
}

// TestSnapshotBinaryRejectsCorruption: every single-byte flip and every
// truncation of a valid binary snapshot must fail to decode — the CRC
// (or a structural check it backstops) catches them all.
func TestSnapshotBinaryRejectsCorruption(t *testing.T) {
	snap := snapTestSnapshot(t)
	data, err := EncodeSnapshot(snap)
	if err != nil {
		t.Fatal(err)
	}
	for i := range data {
		bad := append([]byte(nil), data...)
		bad[i] ^= 0x01
		if _, err := DecodeSnapshot(bad); err == nil {
			t.Fatalf("flip at byte %d decoded cleanly", i)
		}
	}
	for cut := len(snapshotMagic); cut < len(data); cut++ {
		if _, err := DecodeSnapshot(append([]byte(nil), data[:cut]...)); err == nil {
			t.Fatalf("truncation to %d bytes decoded cleanly", cut)
		}
	}
}

// TestSnapshotBinaryVersionGate: a bumped version byte must be refused,
// not misparsed.
func TestSnapshotBinaryVersionGate(t *testing.T) {
	data, err := EncodeSnapshot(snapTestSnapshot(t))
	if err != nil {
		t.Fatal(err)
	}
	data[len(snapshotMagic)] = snapshotVersion + 1
	// Recompute the CRC so only the version differs.
	data = data[:len(data)-4]
	data = binary.LittleEndian.AppendUint32(data, crc32.Checksum(data, castagnoli))
	_, err = DecodeSnapshot(data)
	if !errors.Is(err, ErrSnapshotCorrupt) {
		t.Fatalf("err = %v, want ErrSnapshotCorrupt", err)
	}
}

// FuzzSnapshotRoundTrip throws arbitrary bytes at DecodeSnapshot and
// checks the binary snapshot codec's safety properties:
//
//  1. No input panics; corrupt input is rejected with an error, never
//     decoded into a tree that fails validation.
//  2. Decoding is canonical: any binary snapshot the decoder accepts
//     re-encodes to exactly the input bytes.
func FuzzSnapshotRoundTrip(f *testing.F) {
	// Seed with real snapshots: labelled chain, star with quarantines,
	// bare single node, and a chain with a settled epoch (version 2).
	chain := tree.New()
	p := tree.Root
	for i, name := range []string{"alice", "bob", "carol"} {
		id, _ := chain.Add(p, float64(i)+0.5)
		chain.SetLabel(id, name)
		p = id
	}
	star := tree.FromSpecs(tree.Star(2, 1, 1, 1))
	for _, snap := range []*Snapshot{
		{LastSeq: 3, Tree: chain},
		{LastSeq: 9, Tree: star, Quarantined: []string{"2", "4"}},
		{Tree: tree.New()},
		{LastSeq: 5, Tree: chain, Epochs: []SettledEpoch{{
			Epoch: 1, Pool: 2, CTotal: 4.5,
			Rewards: []RewardShare{{Name: "alice", Amount: 0.5}, {Name: "carol", Amount: 1}},
			Claimed: []string{"carol"},
		}}},
	} {
		data, err := EncodeSnapshot(snap)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	// Magic with a garbage body.
	f.Add(append([]byte("ITS1"), 0x01, 0xff, 0xff))

	f.Fuzz(func(t *testing.T, data []byte) {
		snap, err := DecodeSnapshot(data)
		if err != nil {
			return // rejected cleanly
		}
		if snap.Tree != nil {
			if verr := snap.Tree.Validate(); verr != nil {
				t.Fatalf("decoded snapshot holds an invalid tree: %v", verr)
			}
		}
		reenc, err := EncodeSnapshot(snap)
		if err != nil {
			t.Fatalf("accepted snapshot failed to re-encode: %v", err)
		}
		if !bytes.Equal(data, reenc) {
			t.Fatalf("decode∘encode not identity:\nin:  %x\nout: %x", data, reenc)
		}
	})
}
