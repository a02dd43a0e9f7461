package serve

import (
	"sync"
	"time"

	"tbd/internal/metrics"
)

// Stats aggregates one replica's observability state: request counters
// plus fixed-bucket histograms (metrics.Histogram) of request latency and
// batch occupancy. All methods are safe for concurrent use; the
// histograms themselves are unsynchronized and guarded by the mutex here.
type Stats struct {
	mu sync.Mutex

	// Request counters. Guarded by mu.
	accepted         uint64 // guarded by mu
	rejectedDeadline uint64 // dequeue-time SLO sheds; guarded by mu
	completed        uint64 // guarded by mu
	failed           uint64 // guarded by mu
	batches          uint64 // guarded by mu

	latency   *metrics.Histogram // request residence time, seconds; guarded by mu
	batchTime *metrics.Histogram // per-batch forward time, seconds; guarded by mu
	occupancy *metrics.Histogram // requests per flushed batch; guarded by mu
}

func newStats(maxBatch int) *Stats {
	buckets := maxBatch
	if buckets > 64 {
		buckets = 64
	}
	return &Stats{
		latency:   metrics.NewLatencyHistogram(),
		batchTime: metrics.NewLatencyHistogram(),
		occupancy: metrics.NewLinearHistogram(0, float64(maxBatch), buckets),
	}
}

func (st *Stats) accept() {
	st.mu.Lock()
	st.accepted++
	st.mu.Unlock()
}

func (st *Stats) rejectDeadline() {
	st.mu.Lock()
	st.rejectedDeadline++
	st.mu.Unlock()
}

func (st *Stats) recordBatch(n int, forwardSec float64, latenciesSec []float64) {
	st.mu.Lock()
	st.completed += uint64(n)
	st.batches++
	st.occupancy.Observe(float64(n))
	st.batchTime.Observe(forwardSec)
	for _, l := range latenciesSec {
		st.latency.Observe(l)
	}
	st.mu.Unlock()
}

func (st *Stats) failBatch(n int) {
	st.mu.Lock()
	st.failed += uint64(n)
	st.batches++
	st.mu.Unlock()
}

// StatsSnapshot is a point-in-time copy of the request counters and
// distribution summaries, JSON-ready for the /stats endpoint. Queue-full
// and shutdown rejections happen in the router, before a replica is
// chosen, so RejectedOverload and RejectedShutdown are nonzero only in
// the fleet-wide aggregate (Fleet.Stats adds them); RejectedDeadline
// counts dequeue-time sheds per replica plus, in the aggregate, the
// router's admission-time ones.
type StatsSnapshot struct {
	Accepted         uint64 `json:"accepted"`
	RejectedOverload uint64 `json:"rejected_overload"`
	RejectedShutdown uint64 `json:"rejected_shutdown"`
	RejectedDeadline uint64 `json:"rejected_deadline,omitempty"`
	Completed        uint64 `json:"completed"`
	Failed           uint64 `json:"failed"`
	Batches          uint64 `json:"batches"`

	// Latency quantiles in milliseconds (request residence time).
	LatencyP50Ms  float64 `json:"latency_p50_ms"`
	LatencyP95Ms  float64 `json:"latency_p95_ms"`
	LatencyP99Ms  float64 `json:"latency_p99_ms"`
	LatencyMeanMs float64 `json:"latency_mean_ms"`
	LatencyMaxMs  float64 `json:"latency_max_ms"`

	// BatchP50Ms is the median per-batch forward time in milliseconds.
	BatchP50Ms float64 `json:"batch_p50_ms"`

	// MeanOccupancy is the average number of requests per flushed batch.
	MeanOccupancy float64 `json:"mean_occupancy"`

	// UptimeSec is seconds since the fleet started; ThroughputRPS is
	// completed requests over uptime.
	UptimeSec     float64 `json:"uptime_sec"`
	ThroughputRPS float64 `json:"throughput_rps"`

	// GemmTier is the active GEMM micro-kernel tier (ref, sse, avx2),
	// filled in by Fleet.Stats on the aggregate.
	GemmTier string `json:"gemm_tier,omitempty"`
	// WeightBytes is the resident weight footprint (0 when the model does
	// not expose one), filled in by Fleet.Stats: per replica, and for the
	// aggregate one snapshot when the replicas share storage.
	WeightBytes int64 `json:"weight_bytes,omitempty"`
}

func (st *Stats) snapshot(start time.Time) StatsSnapshot {
	st.mu.Lock()
	defer st.mu.Unlock()
	up := time.Since(start).Seconds()
	snap := StatsSnapshot{
		Accepted:         st.accepted,
		RejectedDeadline: st.rejectedDeadline,
		Completed:        st.completed,
		Failed:           st.failed,
		Batches:          st.batches,
		LatencyP50Ms:     1e3 * st.latency.Quantile(0.50),
		LatencyP95Ms:     1e3 * st.latency.Quantile(0.95),
		LatencyP99Ms:     1e3 * st.latency.Quantile(0.99),
		LatencyMeanMs:    1e3 * st.latency.Mean(),
		LatencyMaxMs:     1e3 * st.latency.Max(),
		BatchP50Ms:       1e3 * st.batchTime.Quantile(0.50),
		MeanOccupancy:    st.occupancy.Mean(),
		UptimeSec:        up,
	}
	if up > 0 {
		snap.ThroughputRPS = float64(st.completed) / up
	}
	return snap
}

// aggregateStats merges several replicas' Stats into one detached Stats
// whose snapshot spans the whole fleet: counters sum, histograms merge
// bucket-wise (all replicas share one bucket layout, so fleet quantiles
// are exact, not averages of quantiles).
func aggregateStats(parts []*Stats) *Stats {
	if len(parts) == 0 {
		return newStats(1)
	}
	var agg *Stats
	for _, p := range parts {
		p.mu.Lock()
		if agg == nil {
			agg = &Stats{
				accepted:         p.accepted,
				rejectedDeadline: p.rejectedDeadline,
				completed:        p.completed,
				failed:           p.failed,
				batches:          p.batches,
				latency:          p.latency.Clone(),
				batchTime:        p.batchTime.Clone(),
				occupancy:        p.occupancy.Clone(),
			}
		} else {
			agg.accepted += p.accepted
			agg.rejectedDeadline += p.rejectedDeadline
			agg.completed += p.completed
			agg.failed += p.failed
			agg.batches += p.batches
			agg.latency.Merge(p.latency)
			agg.batchTime.Merge(p.batchTime)
			agg.occupancy.Merge(p.occupancy)
		}
		p.mu.Unlock()
	}
	return agg
}

// LatencyHistogram returns a copy of the request-latency histogram for
// callers that want full bucket detail (merging across replicas, trace
// annotation).
func (st *Stats) LatencyHistogram() *metrics.Histogram {
	st.mu.Lock()
	defer st.mu.Unlock()
	h := metrics.NewLatencyHistogram()
	h.Merge(st.latency)
	return h
}
