package server

import (
	"incentivetree/internal/obs"
)

// WithMetricsLabels attaches an observability registry: Handler()
// wraps the API in obs.Middleware (per-route request counts, status
// classes, latency histograms) and the deployment's domain gauges are
// registered for scraping, each stamped with the fixed label set
// (variadic key/value pairs, e.g. "campaign", id) so many deployments —
// the store's campaigns — can share one registry without clobbering
// each other's series:
//
//	itree_participants         current number of participants
//	itree_tree_depth_max       deepest participant
//	itree_contribution_total   C(T), total contribution
//	itree_reward_total         R(T) under the configured mechanism
//	itree_budget_utilization   R(T) / (Phi * C(T)), the spent fraction
//	                           of the paper's budget constraint
//	itree_journal_last_seq     last persisted journal sequence number
//	itree_ingest_queue_depth   writes waiting for a group commit
//
// The group commit's counters and histograms register beside them:
// itree_ingest_{shed_total,batches_total,batch_size,commit_seconds}.
// Gauges are computed at scrape time under the server's read lock; the
// reward gauges cost one O(n) pass over the reward aggregates per
// scrape.
func WithMetricsLabels(reg *obs.Registry, labels ...string) Option {
	return func(s *Server) {
		s.metrics = reg
		s.registerGauges(reg, labels...)
	}
}

// domainGauges lists every gauge family registerGauges creates, so
// UnregisterMetrics can remove a deployment's series when it is torn
// down.
var domainGauges = []string{
	"itree_participants",
	"itree_tree_depth_max",
	"itree_contribution_total",
	"itree_reward_total",
	"itree_budget_utilization",
	"itree_journal_last_seq",
	"itree_rewards_cache_hits_total",
	"itree_rewards_cache_misses_total",
	"itree_settle_epochs",
	"itree_settle_carry",
	"itree_settle_amount",
	"itree_claims_amount",
	"itree_claims_unclaimed",
	"itree_settle_commits_total",
	"itree_settle_capped_total",
	"itree_claims_commits_total",
	"itree_claims_conflicts_total",
	"itree_ingest_queue_depth",
	"itree_ingest_shed_total",
	"itree_ingest_batches_total",
	"itree_ingest_batch_size",
	"itree_ingest_commit_seconds",
}

// batchSizeBuckets are the itree_ingest_batch_size histogram's bounds.
var batchSizeBuckets = []float64{1, 2, 4, 8, 16, 32, 64, 128, 256, 512}

// UnregisterMetrics removes the domain-gauge series registered under
// the given label set — the inverse of WithMetricsLabels, used when a
// campaign is deleted.
func UnregisterMetrics(reg *obs.Registry, labels ...string) {
	for _, name := range domainGauges {
		reg.Unregister(name, labels...)
	}
}

func (s *Server) registerGauges(reg *obs.Registry, labels ...string) {
	reg.GaugeFunc("itree_participants",
		"Number of participants in the referral tree.", func() float64 {
			s.mu.RLock()
			defer s.mu.RUnlock()
			return float64(s.state.Tree.NumParticipants())
		}, labels...)
	reg.GaugeFunc("itree_tree_depth_max",
		"Depth of the deepest participant (root children are depth 1).", func() float64 {
			s.mu.RLock()
			defer s.mu.RUnlock()
			return float64(s.state.Tree.ComputeStats().MaxDepth)
		}, labels...)
	reg.GaugeFunc("itree_contribution_total",
		"Total contribution C(T).", func() float64 {
			s.mu.RLock()
			defer s.mu.RUnlock()
			return s.state.Tree.Total()
		}, labels...)
	reg.GaugeFunc("itree_reward_total",
		"Total reward R(T) under the configured mechanism.", func() float64 {
			total, _ := s.rewardTotals()
			return total
		}, labels...)
	reg.GaugeFunc("itree_budget_utilization",
		"Budget utilization R(T)/(Phi*C(T)); the paper's budget constraint holds iff <= 1.", func() float64 {
			_, util := s.rewardTotals()
			return util
		}, labels...)
	reg.GaugeFunc("itree_journal_last_seq",
		"Sequence number of the last journal event applied.", func() float64 {
			s.mu.RLock()
			defer s.mu.RUnlock()
			return float64(s.state.LastSeq)
		}, labels...)
	reg.GaugeFunc("itree_settle_epochs",
		"Number of settled payout epochs.", func() float64 {
			epochs, _, _, _ := s.LedgerView()
			return float64(epochs)
		}, labels...)
	reg.GaugeFunc("itree_settle_carry",
		"Unallocated budget carried into the next epoch.", func() float64 {
			_, _, _, carry := s.LedgerView()
			return carry
		}, labels...)
	reg.GaugeFunc("itree_settle_amount",
		"Cumulative reward settled across all epochs.", func() float64 {
			_, settled, _, _ := s.LedgerView()
			return settled
		}, labels...)
	reg.GaugeFunc("itree_claims_amount",
		"Cumulative reward claimed across all epochs.", func() float64 {
			_, _, claimed, _ := s.LedgerView()
			return claimed
		}, labels...)
	reg.GaugeFunc("itree_claims_unclaimed",
		"Settled but not yet claimed reward.", func() float64 {
			_, settled, claimed, _ := s.LedgerView()
			return settled - claimed
		}, labels...)
	s.viewHits = reg.Counter("itree_rewards_cache_hits_total",
		"Reward-table reads served from the versioned cache.", labels...)
	s.viewMisses = reg.Counter("itree_rewards_cache_misses_total",
		"Reward-table cache rebuilds. Each recomputes the rewards the commits since the previous build moved and re-ranks those ids; after a quarantine flip, or under a mechanism whose rewards read C(T), it recomputes and re-sorts every participant.", labels...)
	s.settleObs = newSettleCounters(reg, labels...)
	reg.GaugeFunc("itree_ingest_queue_depth",
		"Writes waiting for a group commit.", func() float64 {
			return float64(s.IngestQueueLen())
		}, labels...)
	s.shed = reg.Counter("itree_ingest_shed_total",
		"Writes shed by admission control (queue full).", labels...)
	s.batches = reg.Counter("itree_ingest_batches_total",
		"Group commits executed.", labels...)
	s.batchSize = reg.Histogram("itree_ingest_batch_size",
		"Operations per group commit.", batchSizeBuckets, labels...)
	s.commitTime = reg.Histogram("itree_ingest_commit_seconds",
		"Group commit latency (apply, journal append and re-fold).", nil, labels...)
}

// rewardTotals returns R(T) and the budget utilization R(T)/(Phi*C(T))
// (0 for an empty deployment).
func (s *Server) rewardTotals() (total, utilization float64) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	total = s.rewardTotalLocked()
	if budget := s.mech.Params().Phi * s.state.Tree.Total(); budget > 0 {
		utilization = total / budget
	}
	return total, utilization
}
