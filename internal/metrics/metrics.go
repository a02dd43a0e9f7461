// Package metrics implements the measurement methodology of the paper's
// §3.4: the throughput metric, the warm-up/auto-tuning detection that
// decides where the stable sampling window starts, and the utilization
// formulas of Equations 1-3.
package metrics

import (
	"fmt"
	"math"
	"sort"
)

// GPUUtilization is Equation 1: active time over elapsed time.
func GPUUtilization(activeSec, elapsedSec float64) float64 {
	if elapsedSec <= 0 {
		return 0
	}
	u := activeSec / elapsedSec
	if u > 1 {
		u = 1
	}
	return u
}

// FP32Utilization is Equation 2: achieved FLOPs over peak capacity during
// the active period.
func FP32Utilization(flops, peakFLOPS, activeSec float64) float64 {
	if peakFLOPS <= 0 || activeSec <= 0 {
		return 0
	}
	u := flops / (peakFLOPS * activeSec)
	if u > 1 {
		u = 1
	}
	return u
}

// CPUUtilization is Equation 3: summed core-active time over cores times
// elapsed time.
func CPUUtilization(coreActiveSec float64, cores int, elapsedSec float64) float64 {
	if cores <= 0 || elapsedSec <= 0 {
		return 0
	}
	u := coreActiveSec / (float64(cores) * elapsedSec)
	if u > 1 {
		u = 1
	}
	return u
}

// Meter accumulates per-iteration timings of a training run.
type Meter struct {
	batch     int
	durations []float64
}

// NewMeter creates a meter for runs with the given per-iteration batch.
func NewMeter(batch int) *Meter {
	if batch <= 0 {
		panic(fmt.Sprintf("metrics: non-positive batch %d", batch))
	}
	return &Meter{batch: batch}
}

// Record appends one iteration duration in seconds.
func (m *Meter) Record(sec float64) { m.durations = append(m.durations, sec) }

// Iterations returns the number of recorded iterations.
func (m *Meter) Iterations() int { return len(m.durations) }

// StableStart returns the index of the first iteration of the stable
// training phase, found by comparing each duration to the median of the
// final quarter of the run (§3.4.2: warm-up and auto-tuning "can be easily
// identified in measurements ... throughput stabilizes after several
// hundred iterations"). An iteration is stable once it is within tol of
// that reference (e.g. tol = 0.10 for 10%).
func (m *Meter) StableStart(tol float64) int {
	n := len(m.durations)
	if n < 8 {
		return 0
	}
	tail := append([]float64(nil), m.durations[3*n/4:]...)
	sort.Float64s(tail)
	ref := tail[len(tail)/2]
	for i, d := range m.durations {
		if d <= ref*(1+tol) {
			// Require the next few iterations to stay stable too, so a
			// single fast warm-up iteration doesn't end the warm-up.
			stable := true
			for j := i; j < i+4 && j < n; j++ {
				if m.durations[j] > ref*(1+tol) {
					stable = false
					break
				}
			}
			if stable {
				return i
			}
		}
	}
	return n
}

// Window summarizes a sampled measurement window.
type Window struct {
	Start, Count int
	MeanSec      float64
	StdSec       float64
	// Throughput is samples/second over the window.
	Throughput float64
}

// Sample measures a window of up to maxIters iterations starting at the
// detected stable point, mirroring the paper's 50-1000 iteration samples.
func (m *Meter) Sample(tol float64, maxIters int) Window {
	start := m.StableStart(tol)
	end := len(m.durations)
	if end-start > maxIters {
		end = start + maxIters
	}
	w := Window{Start: start, Count: end - start}
	if w.Count == 0 {
		return w
	}
	var sum, sq float64
	for _, d := range m.durations[start:end] {
		sum += d
		sq += d * d
	}
	mean := sum / float64(w.Count)
	w.MeanSec = mean
	variance := sq/float64(w.Count) - mean*mean
	if variance > 0 {
		w.StdSec = math.Sqrt(variance)
	}
	if mean > 0 {
		w.Throughput = float64(m.batch) / mean
	}
	return w
}

// Summary gives distributional statistics of the recorded iteration
// durations over the stable window — the variability view that tells a
// benchmark operator whether a run is quiet enough to report.
type Summary struct {
	Window Window
	P50Sec float64
	P95Sec float64
	// CV is the coefficient of variation (std/mean) over the window.
	CV float64
}

// Summarize computes distribution statistics over the stable window.
func (m *Meter) Summarize(tol float64, maxIters int) Summary {
	w := m.Sample(tol, maxIters)
	s := Summary{Window: w}
	if w.Count == 0 {
		return s
	}
	vals := append([]float64(nil), m.durations[w.Start:w.Start+w.Count]...)
	sort.Float64s(vals)
	s.P50Sec = percentile(vals, 0.50)
	s.P95Sec = percentile(vals, 0.95)
	if w.MeanSec > 0 {
		s.CV = w.StdSec / w.MeanSec
	}
	return s
}

// percentile returns the p-quantile of sorted values.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(p * float64(len(sorted)-1))
	return sorted[idx]
}

// AggregateWindows combines per-worker measurement windows of one
// data-parallel run into a cluster view. Combined throughput is the sum
// of worker throughputs (each worker processes its own shard), MeanSec
// is the straggler mean (a synchronous round moves at the slowest
// worker's pace), and Count is the shortest window so the aggregate
// never claims more iterations than every worker actually measured.
func AggregateWindows(ws []Window) Window {
	var agg Window
	for i, w := range ws {
		if i == 0 || w.Count < agg.Count {
			agg.Count = w.Count
		}
		if w.MeanSec > agg.MeanSec {
			agg.MeanSec = w.MeanSec
		}
		agg.Throughput += w.Throughput
	}
	return agg
}
