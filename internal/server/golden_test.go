package server

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"incentivetree/internal/experiments"
	"incentivetree/internal/journal"
	"incentivetree/internal/treegen"
)

// goldenTables pins, per served mechanism, the SHA-256 of the
// /v1/rewards body and of the /v1/leaderboard?k=50 body over the
// population goldenServer builds. A change to either hash changes the
// bytes a deployment serves.
var goldenTables = map[string][2]string{
	"geometric": {"87246cc1126a857f6244e1a3c809f143d57996b570ffe3564fd1d96c68d2ec5d", "bfaf2c643adfc09caa421b9f3725032d9f870aa7b71a2f5a872ad817159f1ccc"},
	"l-luxor":   {"8f497e185465ada034c99dc9d032e92b8b161c232bd945b4cbd57e2c06f28848", "61dc1fa53a6251ba52c6b23e1f6b11dcdc95671349bd22885d09f0011a2e74a7"},
	"l-pachira": {"b739dcd69d380d4bd529856b4f1046ba36ba1b13bb8e8b60c961909ca1d5eb99", "53f9402ae49ef4dd031d713c4aeb7868025c174114fb02ebc350786f2e959a32"},
	// TDRM serves its RCT chains folded in closed form: within 3.9e-16
	// relative of the Transform + NodeRewards evaluation on this
	// population.
	"tdrm":            {"6a9a1ef5190ef7cba74cc1b976d140e6d9359647841caf6681e5717ebb60bccc", "6762bb02bacc45f4665570d925416f2ac5b27eae2dd5946921819f756ccf64bc"},
	"cdrm-reciprocal": {"681d6b8774a366d3d78a1a9c2e9609bc29c3168d64ed1c0698af43779b24a2a9", "63fecbd6a7b802f77aef39d47246b1b3dca5d2926420add9e73a3bccc716b5fe"},
	"cdrm-log":        {"4d1e4e7c4f8155cc795fadc2cfa9cc681923d9f078fcafec795dc7cb9eb0b69b", "66ddd99a3d9c53be6288e6db8742d7428d9f7c8ca8622402a248aa01e4549fee"},
}

// goldenServer applies a seeded treegen.Mix population to a fresh
// server for mechanism name and reads its leaderboard, then adds four
// childless top-level participants with equal contributions (so
// rewards tie on the leaderboard) and quarantines one participant with
// descendants. The pinned tables are thus ranked from that earlier
// version's ranking.
func goldenServer(t *testing.T, name string, opts ...Option) *Server {
	t.Helper()
	s, sc := mixServer(t, name, treegen.ScenarioConfig{Honest: 300, EpsilonChains: 2, Stars: 2}, opts...)
	body(t, s, "/v1/leaderboard")
	for i := 0; i < 4; i++ {
		tie := fmt.Sprintf("tie-%d", i)
		if err := s.Join(tie, ""); err != nil {
			t.Fatal(err)
		}
		if err := s.Contribute(tie, 40); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Quarantine(sc.Honest[1]); err != nil {
		t.Fatal(err)
	}
	return s
}

// TestGoldenServedTables pins the served reward table and leaderboard
// bytes of all six mechanisms the daemon serves.
func TestGoldenServedTables(t *testing.T) {
	for _, name := range experiments.MechanismNames() {
		t.Run(name, func(t *testing.T) {
			s := goldenServer(t, name)
			var got [2]string
			for i, path := range []string{"/v1/rewards", "/v1/leaderboard?k=50"} {
				sum := sha256.Sum256(body(t, s, path))
				got[i] = hex.EncodeToString(sum[:])
			}
			if want := goldenTables[name]; got != want {
				t.Errorf("served tables changed:\n got  %q\n want %q", got, want)
			}
		})
	}
}

// TestGoldenSnapshotBytes pins the SHA-256 of the binary snapshot and
// of the journal that goldenServer's TDRM campaign leaves after a
// second quarantine, two settled epochs and one claim: a change to
// either hash changes the bytes a checkpoint or a journal holds.
func TestGoldenSnapshotBytes(t *testing.T) {
	var log bytes.Buffer
	s := goldenServer(t, "tdrm", WithJournal(journal.NewWriter(&log, 1)))
	if err := s.Quarantine("tie-3"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Settle(); err != nil {
		t.Fatal(err)
	}
	if err := s.Contribute("tie-0", 5); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Settle(); err != nil {
		t.Fatal(err)
	}
	se, _ := s.state.Ledger.Epoch(1)
	if _, err := s.Claim(se.Rewards[0].Name, 1); err != nil {
		t.Fatal(err)
	}
	snap := s.SnapshotState()
	data, err := journal.EncodeSnapshot(&snap)
	if err != nil {
		t.Fatal(err)
	}
	var got [2]string
	for i, b := range [][]byte{data, log.Bytes()} {
		sum := sha256.Sum256(b)
		got[i] = hex.EncodeToString(sum[:])
	}
	want := [2]string{"56ede9034ee97c02384478a5f04971a90c3ab394d080b0f9ec16d6d0acdd5078", "71d1fe900a5526b71f66114ca38bac109870b47908d54dc149ff9c0e975db48b"}
	if got != want {
		t.Errorf("snapshot or journal bytes changed:\n got  %q\n want %q", got, want)
	}
}
