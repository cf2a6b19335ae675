package server

import (
	"bytes"
	"testing"

	"incentivetree/internal/journal"
	"incentivetree/internal/tree"
)

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
		{LastSeq: 5, Tree: chain, Epochs: []journal.SettledEpoch{{
			Epoch: 1, Pool: 2, CTotal: 4.5,
			Rewards: []journal.RewardShare{{Name: "alice", Amount: 0.5}, {Name: "carol", Amount: 1}},
			Claimed: []string{"carol"},
		}}},
	} {
		data, err := EncodeSnapshotBinary(snap)
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
		reenc, err := EncodeSnapshotBinary(snap)
		if err != nil {
			t.Fatalf("accepted snapshot failed to re-encode: %v", err)
		}
		if !bytes.Equal(data, reenc) {
			t.Fatalf("decode∘encode not identity:\nin:  %x\nout: %x", data, reenc)
		}
	})
}
