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
//	    -> 200 application/octet-stream: the state in the binary
//	       checkpoint codec (journal.EncodeSnapshot), whose CRC
//	       covers the whole body.
//	       X-Itree-Meta: {"id":...,"mechanism":...,"params":{...}}
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
// applied sequence. Records are applied, all or nothing per batch,
// through the same journal.State.Apply as crash recovery and the
// primary's own writes (server.ApplyReplicated), so follower state —
// including reward-table bytes — is identical to a primary that
// journaled the same events. Any divergence (gap, apply error,
// compaction overrun, a snapshot failing its CRC) is handled one way:
// drop the deployment and re-bootstrap. A primary and its followers run
// the same release; a follower that cannot decode the snapshot retries.
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
)

// Wire protocol headers.
const (
	// HeaderCommittedSeq carries the primary's committed sequence number
	// on snapshot and journal responses.
	HeaderCommittedSeq = "X-Itree-Committed-Seq"
	// HeaderMeta carries the campaign's Meta, as JSON, on snapshots.
	HeaderMeta = "X-Itree-Meta"
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

type errorResponse struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}
