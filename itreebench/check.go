package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
)

// relTol is the relative slack of the float comparisons: the daemon
// sums contributions in its own order.
const relTol = 1e-9

// expectation is what the campaign must hold after the measured phase:
// the prepared state plus every acknowledged write.
type expectation struct {
	total float64
	count int
}

func expect(s *stream, t *tally) expectation {
	return expectation{total: s.prepTotal + t.ackAmount, count: s.prepCount + t.ackJoins}
}

// rewardsBody is the part of GET .../rewards the checks read.
type rewardsBody struct {
	Total        float64           `json:"total_contribution"`
	TotalReward  float64           `json:"total_reward"`
	Budget       float64           `json:"budget"`
	Participants []json.RawMessage `json:"participants"`
}

// checkRewards checks a /rewards body against the paper's budget
// constraint R(T) ≤ Φ·C(T) and against the writes the daemon
// acknowledged.
func checkRewards(body []byte, want expectation) error {
	var r rewardsBody
	if err := json.Unmarshal(body, &r); err != nil {
		return fmt.Errorf("decode rewards: %w", err)
	}
	if r.TotalReward > r.Budget*(1+relTol) {
		return fmt.Errorf("budget violated: total_reward %v > budget %v", r.TotalReward, r.Budget)
	}
	if math.Abs(r.Total-want.total) > relTol*math.Max(1, math.Abs(want.total)) {
		return fmt.Errorf("total_contribution %v, want %v from the prepared state plus acknowledged writes", r.Total, want.total)
	}
	if len(r.Participants) != want.count {
		return fmt.Errorf("%d participants, want %d from the prepared state plus acknowledged joins", len(r.Participants), want.count)
	}
	return nil
}

// checkReopen compares the /rewards bodies served before a clean
// shutdown and after the reopen.
func checkReopen(before, after []byte) error {
	if !bytes.Equal(before, after) {
		return fmt.Errorf("rewards after reopen differ from before shutdown (%d vs %d bytes)", len(after), len(before))
	}
	return nil
}
