package journal

import (
	"bytes"
	"testing"
)

// mustRecord encodes e in the given mode or fails the fuzz setup.
func mustRecord(f *testing.F, e Event, mode Mode) []byte {
	f.Helper()
	rec, err := appendRecord(nil, e, mode)
	if err != nil {
		f.Fatal(err)
	}
	return rec
}

// settleSeedLog builds a small log of every ledger record kind after
// the participant records it refers to.
func settleSeedLog(f *testing.F) []byte {
	f.Helper()
	var log bytes.Buffer
	log.Write(mustRecord(f, Event{Seq: 1, Kind: KindJoin, Name: "alice"}, ModeBinary))
	log.Write(mustRecord(f, Event{Seq: 2, Kind: KindContribute, Name: "alice", Amount: 4}, ModeBinary))
	log.Write(mustRecord(f, Event{Seq: 3, Kind: KindSettle, Epoch: 1, Pool: 2, CTotal: 4,
		Rewards: []RewardShare{{Name: "alice", Amount: 1.5}}}, ModeBinary))
	log.Write(mustRecord(f, Event{Seq: 4, Kind: KindClaim, Name: "alice", Epoch: 1, Amount: 1.5}, ModeBinary))
	return log.Bytes()
}

// FuzzSettleRecordDecode extends the decode fuzzing to settle records:
// no input may panic or decode into an invalid event, and any accepted
// binary settle record must re-encode to the exact bytes it was
// decoded from (canonical encoding — replication's rolling hash and
// `itree convert` both depend on it). The JSON-line seeds are records
// of older releases, which the decoder must refuse.
func FuzzSettleRecordDecode(f *testing.F) {
	settle := Event{Seq: 7, Kind: KindSettle, Epoch: 3, Pool: 12.5, CTotal: 100,
		Rewards: []RewardShare{{Name: "alice", Amount: 4.25}, {Name: "bob", Amount: 8}}}
	empty := Event{Seq: 1, Kind: KindSettle, Epoch: 1, Pool: 0.5, CTotal: 1}
	for _, e := range []Event{settle, empty} {
		f.Add(mustRecord(f, e, ModeBinary))
		f.Add(mustRecord(f, e, ModeJSON))
	}
	f.Add(settleSeedLog(f))
	// Adversarial shapes: truncated share table, oversized share count,
	// non-ascending share names smuggled into a well-framed record.
	rec := mustRecord(f, settle, ModeBinary)
	f.Add(rec[:len(rec)-10])
	f.Add([]byte{tagBinaryV1, 0x10, 4, 1, 0, 0, 0xff, 0xff, 0xff, 0xff, 0x0f})
	bad := settle
	bad.Rewards = []RewardShare{{Name: "bob", Amount: 8}, {Name: "alice", Amount: 4.25}}
	if raw, err := AppendBinaryRecord(nil, bad); err == nil {
		f.Add(raw)
	}
	f.Fuzz(checkDecodeRoundTrip)
}

// FuzzClaimRecordDecode is the claim-record counterpart of
// FuzzSettleRecordDecode.
func FuzzClaimRecordDecode(f *testing.F) {
	claim := Event{Seq: 9, Kind: KindClaim, Name: "alice", Epoch: 2, Amount: 3.75}
	f.Add(mustRecord(f, claim, ModeBinary))
	f.Add(mustRecord(f, claim, ModeJSON))
	f.Add(settleSeedLog(f))
	// Truncated epoch varint and a claim with a zero epoch.
	rec := mustRecord(f, claim, ModeBinary)
	f.Add(rec[:len(rec)-5])
	f.Add([]byte(`{"seq":1,"kind":"claim","name":"a","amount":1}` + "\n"))
	f.Fuzz(checkDecodeRoundTrip)
}
