package serve

import (
	"sync"
	"time"

	"tbd/internal/metrics"
)

// statsWindow is the span of each replica's rolling histograms: the
// router's control signals (recent batch-time p50, recent latency p99)
// cover roughly this much of the latest traffic.
const statsWindow = 2 * time.Second

// Stats aggregates one replica's observability state: request counters,
// a fixed-bucket histogram (metrics.Histogram) of batch occupancy, and
// one metrics.RollingHistogram per timed signal — request latency and
// per-batch forward time. Each rolling histogram's window feeds the
// router; its lifetime view (Cumulative) feeds /stats. All methods are
// safe for concurrent use.
type Stats struct {
	mu sync.Mutex

	// Request counters. Guarded by mu.
	accepted         uint64 // guarded by mu
	rejectedDeadline uint64 // dequeue-time SLO sheds; guarded by mu
	completed        uint64 // guarded by mu
	failed           uint64 // guarded by mu
	batches          uint64 // guarded by mu

	occupancy *metrics.Histogram // requests per flushed batch; guarded by mu

	// The rolling histograms lock themselves, so the router reads their
	// windows without mu. They are observed and read for /stats only under
	// mu, so one snapshot's counters and quantiles cover the same batches.
	latency   *metrics.RollingHistogram // request residence time, seconds
	batchTime *metrics.RollingHistogram // per-batch forward time, seconds
}

func newStats(maxBatch int) *Stats {
	buckets := maxBatch
	if buckets > 64 {
		buckets = 64
	}
	return &Stats{
		occupancy: metrics.NewLinearHistogram(0, float64(maxBatch), buckets),
		latency:   metrics.NewRollingLatencyHistogram(statsWindow),
		batchTime: metrics.NewRollingLatencyHistogram(statsWindow),
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

// recordBatch counts one served batch that finished at done: its forward
// time, and each request's latency from its enqueue to done.
func (st *Stats) recordBatch(live []*request, forward time.Duration, done time.Time) {
	st.mu.Lock()
	st.completed += uint64(len(live))
	st.batches++
	st.occupancy.Observe(float64(len(live)))
	st.batchTime.ObserveAt(forward.Seconds(), done)
	for _, q := range live {
		st.latency.ObserveAt(done.Sub(q.enq).Seconds(), done)
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

// statsView is a detached copy of a Stats' lifetime state, or the merge
// of several: what one StatsSnapshot is computed from.
type statsView struct {
	accepted, rejectedDeadline, completed, failed, batches uint64
	latency, batchTime, occupancy                          *metrics.Histogram
}

func (st *Stats) view() statsView {
	st.mu.Lock()
	defer st.mu.Unlock()
	return statsView{
		accepted:         st.accepted,
		rejectedDeadline: st.rejectedDeadline,
		completed:        st.completed,
		failed:           st.failed,
		batches:          st.batches,
		latency:          st.latency.Cumulative(),
		batchTime:        st.batchTime.Cumulative(),
		occupancy:        st.occupancy.Clone(),
	}
}

// merge folds o into v; the zero view takes o over. Counters sum and
// histograms merge bucket-wise (all replicas share one bucket layout, so
// fleet quantiles are exact, not averages of quantiles). o's histograms
// may become v's, so o must not be read afterwards.
func (v *statsView) merge(o statsView) {
	if v.latency == nil {
		*v = o
		return
	}
	v.accepted += o.accepted
	v.rejectedDeadline += o.rejectedDeadline
	v.completed += o.completed
	v.failed += o.failed
	v.batches += o.batches
	v.latency.Merge(o.latency)
	v.batchTime.Merge(o.batchTime)
	v.occupancy.Merge(o.occupancy)
}

func (v statsView) snapshot(start time.Time) StatsSnapshot {
	up := time.Since(start).Seconds()
	snap := StatsSnapshot{
		Accepted:         v.accepted,
		RejectedDeadline: v.rejectedDeadline,
		Completed:        v.completed,
		Failed:           v.failed,
		Batches:          v.batches,
		LatencyP50Ms:     1e3 * v.latency.Quantile(0.50),
		LatencyP95Ms:     1e3 * v.latency.Quantile(0.95),
		LatencyP99Ms:     1e3 * v.latency.Quantile(0.99),
		LatencyMeanMs:    1e3 * v.latency.Mean(),
		LatencyMaxMs:     1e3 * v.latency.Max(),
		BatchP50Ms:       1e3 * v.batchTime.Quantile(0.50),
		MeanOccupancy:    v.occupancy.Mean(),
		UptimeSec:        up,
	}
	if up > 0 {
		snap.ThroughputRPS = float64(v.completed) / up
	}
	return snap
}
