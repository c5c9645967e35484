package cluster

import (
	"involution/internal/obs"
)

// metrics is the cluster_* instrument set on a shared obs.Registry. The
// registry has no label support, so per-node instruments carry a sanitized
// address suffix (cluster_node_healthy_127_0_0_1_8080).
type metrics struct {
	reg *obs.Registry

	dispatches *obs.Counter // shards dispatched (first attempts)
	hedges     *obs.Counter // duplicate attempts launched on stragglers
	// Every launched hedge is accounted exactly once at race-decision time
	// into won, lost or canceled — the three sum to hedges (eventually;
	// in-flight hedges are not yet classified).
	hedgesWon      *obs.Counter // hedged duplicates whose success decided the shard
	hedgesLost     *obs.Counter // hedges beaten by the primary, or wasted on an all-failed race
	hedgesCanceled *obs.Counter // hedges reeled in undecided by outer cancellation
	retries        *obs.Counter // shard reschedules onto another node
	failures       *obs.Counter // attempts that failed (transport or 5xx)
	remoteHits     *obs.Counter // shards answered from a node's result cache
	lakeDedups     *obs.Counter // shards answered from a node's persistent lake
	integrity      *obs.Counter // replies failing end-to-end verification
	replays        *obs.Counter // shards replayed from the checkpoint journal
	throttled      *obs.Counter // attempts refused 429 by fleet admission control
	mismatch       *obs.Counter // health probes answered under another advertised address
	latency        *obs.Histogram
}

// newMetrics claims the instruments on reg. A Coordinator without a
// registry counts into a private one nobody scrapes, so no call site needs
// a nil check.
func newMetrics(reg *obs.Registry) *metrics {
	if reg == nil {
		reg = obs.NewRegistry()
	}
	return &metrics{
		reg:            reg,
		dispatches:     reg.Counter("cluster_dispatch_total", "shards dispatched to nodes (first attempts)"),
		hedges:         reg.Counter("cluster_hedge_total", "hedged duplicate attempts launched on stragglers"),
		hedgesWon:      reg.Counter("cluster_hedges_won_total", "hedged duplicates whose success decided the shard"),
		hedgesLost:     reg.Counter("cluster_hedges_lost_total", "hedges beaten by the primary or wasted on an all-failed race"),
		hedgesCanceled: reg.Counter("cluster_hedges_canceled_total", "hedges reeled in undecided because the outer context was canceled"),
		retries:        reg.Counter("cluster_reschedule_total", "shards rescheduled onto another node after a failure"),
		failures:       reg.Counter("cluster_attempt_failure_total", "shard attempts failed (transport error or refusal)"),
		remoteHits:     reg.Counter("cluster_remote_cache_hit_total", "shards answered from a node's content-addressed result cache (any tier)"),
		lakeDedups:     reg.Counter("cluster_lake_dedup_total", "shards answered from a node's persistent result lake — work deduplicated against a previous campaign or process lifetime"),
		integrity:      reg.Counter("cluster_integrity_failures_total", "node replies failing end-to-end verification (hash mismatch, wrong-job echo, malformed record)"),
		replays:        reg.Counter("cluster_checkpoint_replayed_total", "shards answered from the coordinator's checkpoint journal without dispatch"),
		throttled:      reg.Counter("cluster_throttled_total", "shard attempts refused with 429 by a node's admission control (tenant quota, not node illness)"),
		mismatch:       reg.Counter("cluster_advertise_mismatch_total", "health probes answered by a node advertising a different address than routed"),
		latency: reg.Histogram("cluster_shard_latency_seconds", "per-shard wall time, submission to accepted result",
			obs.ExpBuckets(0.001, 2, 16)),
	}
}

// nodeHealthy returns (claiming on first use) the per-node health gauge:
// 1 healthy, 0 broken/draining.
func (m *metrics) nodeHealthy(node string) *obs.Gauge {
	return m.reg.Gauge("cluster_node_healthy_"+obs.SanitizeMetricName(node),
		"node availability: 1 healthy, 0 tripped or draining")
}

// nodeInFlight returns the per-node in-flight gauge.
func (m *metrics) nodeInFlight(node string) *obs.Gauge {
	return m.reg.Gauge("cluster_node_inflight_"+obs.SanitizeMetricName(node),
		"requests currently in flight to the node")
}

// nodeQueue returns the per-node reported queue-depth gauge (from
// /healthz), and nodeRunning the reported running-job gauge.
func (m *metrics) nodeQueue(node string) *obs.Gauge {
	return m.reg.Gauge("cluster_node_queue_"+obs.SanitizeMetricName(node),
		"queued jobs the node reported in its last health probe")
}

func (m *metrics) nodeRunning(node string) *obs.Gauge {
	return m.reg.Gauge("cluster_node_running_"+obs.SanitizeMetricName(node),
		"running jobs the node reported in its last health probe")
}
