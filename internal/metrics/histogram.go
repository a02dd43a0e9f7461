package metrics

import (
	"fmt"
	"math"
	"sort"
)

// Histogram is a fixed-bucket quantile estimator: observations are counted
// into buckets delimited by a static ascending bound list, and quantiles
// are recovered by linear interpolation inside the containing bucket. It
// trades exactness for O(1) observation and O(buckets) memory regardless
// of sample count, which is what a long-running serving process needs —
// recording every request latency the way Meter records step durations
// would grow without bound.
//
// A Histogram is not synchronized; callers that observe from multiple
// goroutines must serialize access (serve.Stats wraps one in a mutex).
type Histogram struct {
	// bounds[i] is the inclusive upper edge of bucket i; counts has one
	// extra trailing bucket for observations above the last bound.
	bounds []float64
	counts []uint64

	count    uint64
	sum      float64
	min, max float64
}

// NewHistogram builds a histogram over the given strictly ascending
// bucket upper bounds. Observations above the last bound land in an
// implicit overflow bucket.
func NewHistogram(bounds []float64) *Histogram {
	if len(bounds) == 0 {
		panic("metrics: histogram needs at least one bucket bound")
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("metrics: histogram bounds must be strictly ascending, got %v", bounds))
		}
	}
	return &Histogram{
		bounds: append([]float64(nil), bounds...),
		counts: make([]uint64, len(bounds)+1),
		min:    math.Inf(1),
		max:    math.Inf(-1),
	}
}

// NewLatencyHistogram builds log-spaced buckets suited to request and
// step latencies in seconds: 2x steps from 1µs to ~68s (27 buckets).
func NewLatencyHistogram() *Histogram {
	bounds := make([]float64, 27)
	b := 1e-6
	for i := range bounds {
		bounds[i] = b
		b *= 2
	}
	return NewHistogram(bounds)
}

// NewLinearHistogram builds n equal-width buckets spanning (lo, hi].
func NewLinearHistogram(lo, hi float64, n int) *Histogram {
	if n <= 0 || hi <= lo {
		panic(fmt.Sprintf("metrics: invalid linear histogram [%g, %g] / %d", lo, hi, n))
	}
	bounds := make([]float64, n)
	w := (hi - lo) / float64(n)
	for i := range bounds {
		bounds[i] = lo + w*float64(i+1)
	}
	return NewHistogram(bounds)
}

// Observe counts one value.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i]++
	h.count++
	h.sum += v
	if v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
}

// Count returns the number of observations.
//
//tbd:api the observation count the serve tests check against their request totals
func (h *Histogram) Count() uint64 { return h.count }

// Mean returns the average observed value (0 when empty).
func (h *Histogram) Mean() float64 {
	if h.count == 0 {
		return 0
	}
	return h.sum / float64(h.count)
}

// Max returns the largest observation (0 when empty), exact.
func (h *Histogram) Max() float64 {
	if h.count == 0 {
		return 0
	}
	return h.max
}

// Quantile estimates the p-quantile (p in [0, 1]) by locating the bucket
// containing the p-th ranked observation and interpolating linearly inside
// it. The estimate is clamped to the exact observed [min, max], so
// single-bucket and tail distributions do not report values outside the
// data. Values in the overflow bucket report max.
func (h *Histogram) Quantile(p float64) float64 {
	if h.count == 0 {
		return 0
	}
	if p < 0 {
		p = 0
	}
	if p > 1 {
		p = 1
	}
	rank := p * float64(h.count)
	var cum float64
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		next := cum + float64(c)
		if rank <= next || i == len(h.counts)-1 {
			if i == len(h.counts)-1 {
				// Overflow bucket has no upper edge; max is the best bound.
				return h.max
			}
			lo := h.min
			if i > 0 {
				lo = h.bounds[i-1]
			}
			hi := h.bounds[i]
			frac := (rank - cum) / float64(c)
			v := lo + frac*(hi-lo)
			return clamp(v, h.min, h.max)
		}
		cum = next
	}
	return h.max
}

func clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// Clone returns a deep copy of h: same bucket layout, same counts. The
// copy is independent — observing into either histogram afterwards does
// not move the other.
func (h *Histogram) Clone() *Histogram {
	return &Histogram{
		bounds: append([]float64(nil), h.bounds...),
		counts: append([]uint64(nil), h.counts...),
		count:  h.count,
		sum:    h.sum,
		min:    h.min,
		max:    h.max,
	}
}

// Reset drops every observation, keeping the bucket layout. Used by the
// rotating Window to recycle expired slices without reallocating.
func (h *Histogram) Reset() {
	clear(h.counts)
	h.count = 0
	h.sum = 0
	h.min = math.Inf(1)
	h.max = math.Inf(-1)
}

// Merge adds o's observations into h. Both histograms must share the same
// bucket bounds.
func (h *Histogram) Merge(o *Histogram) {
	if len(h.bounds) != len(o.bounds) {
		panic("metrics: merging histograms with different bucket layouts")
	}
	for i, b := range h.bounds {
		if b != o.bounds[i] {
			panic("metrics: merging histograms with different bucket layouts")
		}
	}
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.count += o.count
	h.sum += o.sum
	if o.count > 0 {
		if o.min < h.min {
			h.min = o.min
		}
		if o.max > h.max {
			h.max = o.max
		}
	}
}
