package metrics_test

// The sampling-window tests run on sim.WarmupTrace, the simulator's model
// of a fresh run. sim computes Equations 1-3 with this package, so these
// tests live outside it.

import (
	"math"
	"testing"

	"tbd/internal/metrics"
	"tbd/internal/sim"
)

func TestStableStartSkipsWarmup(t *testing.T) {
	m := metrics.NewMeter(32)
	// Model a realistic run: 6x slowdown decaying into a stable 100ms.
	for _, d := range sim.WarmupTrace(0.1, 300) {
		m.Record(d)
	}
	start := m.StableStart(0.10)
	if start < 5 {
		t.Fatalf("stable start %d is inside the warm-up", start)
	}
	if start > 150 {
		t.Fatalf("stable start %d too late", start)
	}
}

func TestSampleWindow(t *testing.T) {
	m := metrics.NewMeter(64)
	for _, d := range sim.WarmupTrace(0.05, 400) {
		m.Record(d)
	}
	w := m.Sample(0.05, 100)
	if w.Count == 0 || w.Count > 100 {
		t.Fatalf("window count %d", w.Count)
	}
	if math.Abs(w.MeanSec-0.05) > 0.005 {
		t.Fatalf("window mean %.4f, want ~0.05", w.MeanSec)
	}
	// Throughput = batch / mean.
	want := 64.0 / w.MeanSec
	if math.Abs(w.Throughput-want) > 1e-9 {
		t.Fatalf("throughput %.1f, want %.1f", w.Throughput, want)
	}
	if w.StdSec < 0 {
		t.Fatal("negative std")
	}
}

func TestSampleThroughputMoreAccurateThanNaive(t *testing.T) {
	// Measuring from iteration 0 (including warm-up) underestimates
	// steady-state throughput; the sampling methodology fixes that.
	m := metrics.NewMeter(32)
	trace := sim.WarmupTrace(0.1, 300)
	var total float64
	for _, d := range trace {
		m.Record(d)
		total += d
	}
	naive := 32 * float64(len(trace)) / total
	sampled := m.Sample(0.1, 200).Throughput
	steady := 32 / 0.1
	if math.Abs(sampled-steady) >= math.Abs(naive-steady) {
		t.Fatalf("sampled %.1f not closer to steady %.1f than naive %.1f", sampled, steady, naive)
	}
}
