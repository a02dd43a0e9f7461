package stats

import (
	"math"
	"testing"
)

func TestQuantileInterpolatesBetweenRanks(t *testing.T) {
	s := []float64{10, 20, 30, 40}
	for _, c := range []struct{ q, want float64 }{
		{0, 10}, {1, 40}, {0.5, 25}, {0.25, 17.5}, {0.75, 32.5},
	} {
		if got := Quantile(s, c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("Quantile(%v, %v) = %v, want %v", s, c.q, got, c.want)
		}
	}
	if got := Quantile(nil, 0.5); got != 0 {
		t.Errorf("Quantile of no samples = %v, want 0", got)
	}
}

// TestMedianAndSpreadLeaveTheirInput: the gate keeps each row's runs in
// the order they ran, so neither may sort its argument.
func TestMedianAndSpreadLeaveTheirInput(t *testing.T) {
	xs := []float64{120, 80, 120, 80, 120, 80}
	if got := Median(xs); got != 100 {
		t.Errorf("Median = %v, want 100", got)
	}
	if got := Spread(xs); math.Abs(got-0.4) > 1e-12 {
		t.Errorf("Spread = %v, want 0.4 (IQR 40 over median 100)", got)
	}
	if xs[0] != 120 || xs[1] != 80 {
		t.Errorf("input reordered: %v", xs)
	}
	if Median([]float64{7}) != 7 || Spread([]float64{7}) != 0 || Spread(nil) != 0 {
		t.Error("one sample: median is the sample, spread 0; no samples: spread 0")
	}
}
