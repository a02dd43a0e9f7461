package metrics

import (
	"math"
	"testing"
)

func TestHistogramBasics(t *testing.T) {
	h := NewHistogram([]float64{1, 2, 4, 8})
	for _, v := range []float64{0.5, 1.5, 1.7, 3, 9} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Fatalf("count = %d, want 5", h.Count())
	}
	if got, want := h.Sum(), 0.5+1.5+1.7+3+9; math.Abs(got-want) > 1e-12 {
		t.Fatalf("sum = %g, want %g", got, want)
	}
	if got := h.Mean(); math.Abs(got-15.7/5) > 1e-12 {
		t.Fatalf("mean = %g", got)
	}
	if h.Min() != 0.5 || h.Max() != 9 {
		t.Fatalf("min/max = %g/%g, want 0.5/9", h.Min(), h.Max())
	}
}

func TestHistogramQuantile(t *testing.T) {
	// Uniform values 1..1000 into 10 linear buckets: quantile estimates
	// should land within one bucket width of the exact quantile.
	h := NewLinearHistogram(0, 1000, 10)
	for i := 1; i <= 1000; i++ {
		h.Observe(float64(i))
	}
	for _, p := range []float64{0.1, 0.5, 0.9, 0.95, 0.99} {
		exact := p * 1000
		got := h.Quantile(p)
		if math.Abs(got-exact) > 100 {
			t.Errorf("q(%g) = %g, want within one bucket of %g", p, got, exact)
		}
	}
	if got := h.Quantile(0); got < 1 || got > 100 {
		t.Errorf("q(0) = %g out of first bucket", got)
	}
	if got := h.Quantile(1); got != 1000 {
		t.Errorf("q(1) = %g, want clamped to max 1000", got)
	}
}

func TestHistogramQuantileClampedToObserved(t *testing.T) {
	// All mass in one wide bucket: interpolation must not escape the
	// observed range.
	h := NewHistogram([]float64{1000})
	h.Observe(5)
	h.Observe(7)
	if got := h.Quantile(0.5); got < 5 || got > 7 {
		t.Fatalf("q(0.5) = %g, want within observed [5, 7]", got)
	}
}

func TestHistogramOverflowBucket(t *testing.T) {
	h := NewHistogram([]float64{1, 2})
	h.Observe(100)
	h.Observe(200)
	if got := h.Quantile(0.5); got != 200 {
		t.Fatalf("overflow quantile = %g, want exact max 200", got)
	}
	bs := h.Buckets()
	if len(bs) != 1 || !math.IsInf(bs[0].UpperBound, 1) || bs[0].Count != 2 {
		t.Fatalf("buckets = %+v, want one +Inf bucket of 2", bs)
	}
}

func TestHistogramEmpty(t *testing.T) {
	h := NewLatencyHistogram()
	if h.Count() != 0 || h.Mean() != 0 || h.Quantile(0.5) != 0 || h.Min() != 0 || h.Max() != 0 {
		t.Fatal("empty histogram should report zeros")
	}
	if h.Buckets() != nil {
		t.Fatal("empty histogram should have no non-empty buckets")
	}
}

func TestHistogramMerge(t *testing.T) {
	a := NewLinearHistogram(0, 10, 10)
	b := NewLinearHistogram(0, 10, 10)
	for i := 0; i < 50; i++ {
		a.Observe(2.5)
		b.Observe(7.5)
	}
	a.Merge(b)
	if a.Count() != 100 {
		t.Fatalf("merged count = %d, want 100", a.Count())
	}
	if got := a.Quantile(0.25); math.Abs(got-2.5) > 1 {
		t.Errorf("merged q(0.25) = %g, want ~2.5", got)
	}
	if got := a.Quantile(0.75); math.Abs(got-7.5) > 1 {
		t.Errorf("merged q(0.75) = %g, want ~7.5", got)
	}
	if a.Min() != 2.5 || a.Max() != 7.5 {
		t.Errorf("merged min/max = %g/%g", a.Min(), a.Max())
	}
}

func TestHistogramMergeLayoutMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("merge with different layouts should panic")
		}
	}()
	NewLinearHistogram(0, 10, 10).Merge(NewLinearHistogram(0, 10, 5))
}

func TestHistogramBadBounds(t *testing.T) {
	for _, bounds := range [][]float64{nil, {}, {1, 1}, {2, 1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("bounds %v should panic", bounds)
				}
			}()
			NewHistogram(bounds)
		}()
	}
}

func TestMeterDurationHistogram(t *testing.T) {
	m := NewMeter(32)
	for i := 0; i < 100; i++ {
		m.Record(0.010) // 10ms steps
	}
	m.Record(0.100) // one straggler
	h := m.DurationHistogram()
	if h.Count() != 101 {
		t.Fatalf("count = %d, want 101", h.Count())
	}
	if q := h.Quantile(0.5); q < 0.004 || q > 0.017 {
		t.Errorf("p50 = %g, want ~10ms inside its 2x bucket", q)
	}
	if q := h.Quantile(0.999); math.Abs(q-0.100) > 0.05 {
		t.Errorf("p99.9 = %g, want near the 100ms straggler", q)
	}
}

// Sum returns the sum of observed values.
func (h *Histogram) Sum() float64 { return h.sum }

// Min returns the smallest observation (0 when empty). Unlike the bucket
// counts it is exact.
func (h *Histogram) Min() float64 {
	if h.count == 0 {
		return 0
	}
	return h.min
}

// Buckets returns (upper bound, count) pairs for non-empty buckets, with
// the overflow bucket reported under bound +Inf — the export format for
// dashboards and trace annotations.
func (h *Histogram) Buckets() []BucketCount {
	var out []BucketCount
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		bound := math.Inf(1)
		if i < len(h.bounds) {
			bound = h.bounds[i]
		}
		out = append(out, BucketCount{UpperBound: bound, Count: c})
	}
	return out
}

// BucketCount is one non-empty histogram bucket.
type BucketCount struct {
	UpperBound float64
	Count      uint64
}

// DurationHistogram folds the meter's recorded iteration durations into a
// log-bucketed latency histogram, giving step-time statistics the same
// fixed-memory quantile view the serving path uses for request latency.
func (m *Meter) DurationHistogram() *Histogram {
	h := NewLatencyHistogram()
	for _, d := range m.durations {
		h.Observe(d)
	}
	return h
}
