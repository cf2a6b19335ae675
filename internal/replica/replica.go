// Package replica implements journal-streaming replication: follower
// read replicas that are byte-identical to their primary, built from
// the exact machinery crash recovery already trusts.
//
// # Protocol
//
// The primary exposes two read-only endpoints per campaign (served by
// internal/store on the regular API listener):
//
//	GET /v1/campaigns/{id}/replica/snapshot
//	    -> 200 {"meta":{...},"snapshot":{"last_seq":k,"tree":{...}}}
//	       X-Itree-Committed-Seq: <committed>
//
//	GET /v1/campaigns/{id}/replica/journal?from=<seq>&wait=<dur>
//	    -> 200 application/octet-stream: the journal records from
//	       <seq> onward as binary records — the on-disk journal
//	       format, byte for byte. X-Itree-Committed-Seq carries the
//	       committed sequence at response start. With no records
//	       available the primary holds the request up to <dur> (long
//	       poll), emitting blank-line heartbeats, and returns what
//	       arrived (possibly nothing).
//	    -> 410 when <seq> predates the oldest retained record (the
//	       checkpointer compacted it away): the follower cannot catch
//	       up by tailing and must re-bootstrap from snapshot.
//
// A follower bootstraps each campaign from the snapshot endpoint, then
// tails the journal stream with retry/backoff, resuming from its last
// applied sequence. Records are applied through the same replay code
// as crash recovery (server.ApplyReplicated), so follower state —
// including reward-table bytes — is identical to a primary that
// journaled the same events. Any divergence (gap, replay error,
// compaction overrun) is handled one way: drop the deployment and
// re-bootstrap.
//
// # Staleness
//
// A follower knows two sequence numbers per campaign: applied (what it
// has replayed) and committed (the primary's position, learned from
// stream responses). Their difference is the lag in records; the time
// since the follower last confirmed it was caught up bounds the lag in
// seconds. Both are exported as itree_replica_lag_records and
// itree_replica_lag_seconds gauges, stamped on every read in the
// X-Itree-Staleness header, and enforced by the follower's HTTP
// middleware: reads return 503 once staleness exceeds the configured
// bound (writes always redirect to the primary with 307).
package replica

import (
	"encoding/json"
	"net/http"

	"incentivetree/internal/core"
	"incentivetree/internal/server"
)

// Wire protocol headers.
const (
	// HeaderCommittedSeq carries the primary's committed sequence number
	// on snapshot and journal responses.
	HeaderCommittedSeq = "X-Itree-Committed-Seq"
	// HeaderStaleness reports a follower's lag on read responses, as
	// "records=<n> seconds=<s>" (or "unsynced" before the first
	// successful bootstrap).
	HeaderStaleness = "X-Itree-Staleness"
)

// Meta is the wire form of a campaign's configuration, enough for a
// follower to rebuild the mechanism. Documents from primaries that
// still send the retired "incremental" switch decode; the field is
// ignored.
type Meta struct {
	ID        string      `json:"id"`
	Mechanism string      `json:"mechanism"`
	Params    core.Params `json:"params"`
}

// SnapshotDoc is the body of GET .../replica/snapshot.
type SnapshotDoc struct {
	Meta     Meta            `json:"meta"`
	Snapshot server.Snapshot `json:"snapshot"`
}

type errorResponse struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}
