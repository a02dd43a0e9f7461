package metrics

import (
	"fmt"
	"sync"
	"time"
)

// RollingHistogram is a rotating view over a Histogram: observations land both in a
// lifetime (cumulative) histogram and in a ring of time-sliced histograms,
// and Snapshot merges the live slices into the distribution of roughly the
// last (slices x sliceDur) of traffic. A long-running serving process needs
// this split because lifetime quantiles converge to the steady state and
// stop moving — useless as a control signal. The serving router steers on
// Snapshot's recent p99 while /stats keeps reporting the cumulative view.
//
// Unlike Histogram, a RollingHistogram is safe for concurrent use: the router reads
// snapshots while replica runners observe.
type RollingHistogram struct {
	mu sync.Mutex

	slices     []*Histogram // ring of time slices; guarded by mu
	cumulative *Histogram   // lifetime; guarded by mu
	cur        int          // ring index of the active slice; guarded by mu
	curEpoch   int64        // absolute slice number held by slices[cur]; guarded by mu

	sliceDur time.Duration
	start    time.Time
}

// NewRollingHistogram builds a rotating histogram of `slices` slices of sliceDur each,
// all sharing proto's bucket layout (proto itself is only a layout donor
// and is never observed into).
func NewRollingHistogram(proto *Histogram, sliceDur time.Duration, slices int) *RollingHistogram {
	if slices < 2 {
		panic(fmt.Sprintf("metrics: window needs at least 2 slices, got %d", slices))
	}
	if sliceDur <= 0 {
		panic(fmt.Sprintf("metrics: non-positive window slice duration %v", sliceDur))
	}
	cum := proto.Clone()
	cum.Reset()
	ring := make([]*Histogram, slices)
	for i := range ring {
		ring[i] = cum.Clone()
	}
	return &RollingHistogram{
		slices:     ring,
		cumulative: cum,
		sliceDur:   sliceDur,
		start:      time.Now(),
	}
}

// NewRollingLatencyHistogram is the common case: latency-bucketed slices covering
// roughly `span` of recent traffic in 8 rotating slices.
func NewRollingLatencyHistogram(span time.Duration) *RollingHistogram {
	const slices = 8
	sliceDur := span / slices
	if sliceDur <= 0 {
		sliceDur = time.Millisecond
	}
	return NewRollingHistogram(NewLatencyHistogram(), sliceDur, slices)
}

// rotate advances the ring to the slice containing now, resetting every
// slice that expired on the way.
//
//tbd:locked-by-caller
func (w *RollingHistogram) rotate(now time.Time) {
	epoch := int64(now.Sub(w.start) / w.sliceDur)
	if epoch <= w.curEpoch {
		return // same slice, or a clock observed out of order: keep current
	}
	steps := epoch - w.curEpoch
	if steps >= int64(len(w.slices)) {
		// The whole window expired; reset everything in one pass.
		for _, s := range w.slices {
			s.Reset()
		}
	} else {
		for i := int64(0); i < steps; i++ {
			w.cur = (w.cur + 1) % len(w.slices)
			w.slices[w.cur].Reset()
		}
	}
	w.curEpoch = epoch
	w.cur = int(epoch % int64(len(w.slices)))
}

// Observe counts one value into the current slice and the cumulative
// histogram.
func (w *RollingHistogram) Observe(v float64) { w.ObserveAt(v, time.Now()) }

// ObserveAt is Observe with an explicit clock, for deterministic tests.
func (w *RollingHistogram) ObserveAt(v float64, now time.Time) {
	w.mu.Lock()
	w.rotate(now)
	w.slices[w.cur].Observe(v)
	w.cumulative.Observe(v)
	w.mu.Unlock()
}

// Snapshot returns a copy of the recent window: the merge of every live
// slice, i.e. the distribution of roughly the last slices x sliceDur of
// observations. The copy is independent and safe to read lock-free.
func (w *RollingHistogram) Snapshot() *Histogram { return w.SnapshotAt(time.Now()) }

// SnapshotAt is Snapshot with an explicit clock, for deterministic tests.
func (w *RollingHistogram) SnapshotAt(now time.Time) *Histogram {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.rotate(now)
	out := w.slices[0].Clone()
	for _, s := range w.slices[1:] {
		out.Merge(s)
	}
	return out
}

// Cumulative returns a copy of the lifetime histogram (every observation
// since the window was created, regardless of rotation). It is what the
// serving /stats endpoint reports, per replica and merged bucket-wise
// across the fleet.
func (w *RollingHistogram) Cumulative() *Histogram {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.cumulative.Clone()
}
