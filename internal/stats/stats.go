// Package stats holds the order statistics the benchmark gate reads off
// repeated runs: the interpolated quantile, the median and the
// interquartile spread. It imports nothing of the module.
package stats

import (
	"math"
	"slices"
)

// Quantile returns the q-quantile (0 <= q <= 1) of an ascending slice by
// linear interpolation between the two nearest ranks; 0 for no samples.
func Quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return sorted[lo] + (pos-float64(lo))*(sorted[hi]-sorted[lo])
}

// Median returns the median of xs, which it leaves in place; 0 for no
// samples.
func Median(xs []float64) float64 { return Quantile(sorted(xs), 0.5) }

// Spread returns the interquartile range of xs over their median, the
// noise of repeated runs as a fraction of their level; 0 for no samples.
func Spread(xs []float64) float64 {
	s := sorted(xs)
	if m := Quantile(s, 0.5); m != 0 {
		return (Quantile(s, 0.75) - Quantile(s, 0.25)) / m
	}
	return 0
}

func sorted(xs []float64) []float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	return s
}
