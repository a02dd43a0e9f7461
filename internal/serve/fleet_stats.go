package serve

import (
	"math"

	"tbd/internal/metrics"
	"tbd/internal/tensor"
)

// ReplicaSnapshot is one replica's view inside a FleetSnapshot: its
// request counters plus the live router signals.
type ReplicaSnapshot struct {
	Replica int `json:"replica"`
	StatsSnapshot
	// QueueDepth is the live depth at snapshot time (queue residents plus
	// the in-flight batch).
	QueueDepth int `json:"queue_depth"`
	// RecentP99Ms and RecentBatchP50Ms are the rotating-window signals the
	// router steers on, in milliseconds.
	RecentP99Ms      float64 `json:"recent_p99_ms"`
	RecentBatchP50Ms float64 `json:"recent_batch_p50_ms"`
}

// FleetSnapshot is the fleet-wide /stats payload: exact aggregate
// counters and quantiles (replica histograms share one bucket layout and
// merge bucket-wise), router-side shed counts, swap history, and the
// per-replica breakdown.
type FleetSnapshot struct {
	StatsSnapshot
	Replicas      int  `json:"replicas"`
	SharedWeights bool `json:"shared_weights"`
	HalfWeights   bool `json:"half_weights,omitempty"`
	// SLOMs is the fleet's default latency budget in milliseconds (0 when
	// SLO routing is off); RecentP99Ms is the fleet-wide rotating-window
	// p99 — compare the two to see whether the fleet is inside its SLO
	// right now, regardless of lifetime history.
	SLOMs       float64 `json:"slo_ms,omitempty"`
	RecentP99Ms float64 `json:"recent_p99_ms"`
	// Swaps counts completed weight hot-swaps; LastSwapMs is the wall
	// time of the most recent one (build + load + canary + all flips).
	Swaps      uint64            `json:"swaps"`
	LastSwapMs float64           `json:"last_swap_ms,omitempty"`
	PerReplica []ReplicaSnapshot `json:"per_replica"`
}

// Stats returns a point-in-time fleet snapshot.
func (f *Fleet) Stats() FleetSnapshot {
	var all statsView
	per := make([]ReplicaSnapshot, len(f.replicas))
	recent := metrics.NewLatencyHistogram()
	for i, r := range f.replicas {
		v := r.stats.view()
		rs := ReplicaSnapshot{
			Replica:          i,
			StatsSnapshot:    v.snapshot(f.start),
			QueueDepth:       int(r.queued.Load()),
			RecentP99Ms:      1e3 * math.Float64frombits(r.recentP99.Load()),
			RecentBatchP50Ms: 1e3 * math.Float64frombits(r.batchP50.Load()),
		}
		rs.WeightBytes = r.sess.Load().WeightBytes()
		per[i] = rs
		all.merge(v)
		recent.Merge(r.stats.latency.Snapshot())
	}
	agg := all.snapshot(f.start)
	// Router-side sheds happen before a replica is chosen; fold them into
	// the aggregate (replica stats only ever count dequeue-time deadline
	// sheds, so there is no double counting).
	agg.RejectedOverload = f.rejOverload.Load()
	agg.RejectedDeadline += f.rejDeadline.Load()
	agg.RejectedShutdown = f.rejShutdown.Load()
	agg.GemmTier = tensor.GemmKernelTier()
	agg.WeightBytes = f.residentWeightBytes()
	return FleetSnapshot{
		StatsSnapshot: agg,
		Replicas:      len(f.replicas),
		SharedWeights: f.shared,
		HalfWeights:   f.cfg.HalfWeights,
		SLOMs:         1e3 * f.cfg.SLO.Seconds(),
		RecentP99Ms:   1e3 * recent.Quantile(0.99),
		Swaps:         f.swaps.Load(),
		LastSwapMs:    float64(f.lastSwapNs.Load()) / 1e6,
		PerReplica:    per,
	}
}
