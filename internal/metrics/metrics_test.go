package metrics

import "testing"

func TestUtilizationFormulas(t *testing.T) {
	if got := GPUUtilization(0.5, 1); got != 0.5 {
		t.Fatalf("gpu util %g", got)
	}
	if got := GPUUtilization(2, 1); got != 1 {
		t.Fatal("gpu util must clamp to 1")
	}
	if got := GPUUtilization(1, 0); got != 0 {
		t.Fatal("zero elapsed must yield 0")
	}
	if got := FP32Utilization(5e12, 10e12, 1); got != 0.5 {
		t.Fatalf("fp32 util %g", got)
	}
	if got := CPUUtilization(14, 28, 1); got != 0.5 {
		t.Fatalf("cpu util %g", got)
	}
}

func TestStableStartNotFooledBySingleFastIteration(t *testing.T) {
	m := NewMeter(1)
	durs := []float64{1.0, 0.1, 1.0, 0.9, 0.6, 0.1, 0.1, 0.1, 0.1, 0.1, 0.1, 0.1}
	for _, d := range durs {
		m.Record(d)
	}
	if got := m.StableStart(0.1); got != 5 {
		t.Fatalf("stable start %d, want 5", got)
	}
}

func TestShortRunsDegradeGracefully(t *testing.T) {
	m := NewMeter(8)
	m.Record(0.2)
	m.Record(0.2)
	if m.StableStart(0.1) != 0 {
		t.Fatal("short runs should start at 0")
	}
	w := m.Sample(0.1, 10)
	if w.Count != 2 {
		t.Fatalf("window count %d", w.Count)
	}
}

func TestDurationThroughput(t *testing.T) {
	// 2 clips/s of 12.5 s audio = 25 s of audio per second.
	if got := DurationThroughput(2, 12.5); got != 25 {
		t.Fatalf("duration throughput %g", got)
	}
}

func TestNewMeterValidates(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("want panic on batch 0")
		}
	}()
	NewMeter(0)
}

func TestSummarizePercentiles(t *testing.T) {
	m := NewMeter(8)
	// Stable run with one slow outlier.
	for i := 0; i < 99; i++ {
		m.Record(0.1)
	}
	m.Record(0.2)
	s := m.Summarize(0.5, 200)
	if s.P50Sec != 0.1 {
		t.Fatalf("p50 = %g", s.P50Sec)
	}
	if s.P95Sec < 0.1 || s.P95Sec > 0.2 {
		t.Fatalf("p95 = %g", s.P95Sec)
	}
	if s.CV < 0 || s.CV > 0.2 {
		t.Fatalf("cv = %g", s.CV)
	}
	// Empty meter degrades gracefully.
	if got := NewMeter(1).Summarize(0.1, 10); got.P50Sec != 0 || got.CV != 0 {
		t.Fatalf("empty summary %+v", got)
	}
}

func TestAggregateWindows(t *testing.T) {
	ws := []Window{
		{Count: 40, MeanSec: 0.010, Throughput: 400},
		{Count: 50, MeanSec: 0.012, Throughput: 380},
		{Count: 45, MeanSec: 0.011, Throughput: 390},
	}
	agg := AggregateWindows(ws)
	if agg.Count != 40 {
		t.Fatalf("aggregate count %d, want the shortest window 40", agg.Count)
	}
	if agg.MeanSec != 0.012 {
		t.Fatalf("aggregate mean %.4f, want the straggler 0.012", agg.MeanSec)
	}
	if agg.Throughput != 400+380+390 {
		t.Fatalf("aggregate throughput %.0f, want the sum 1170", agg.Throughput)
	}
	zero := AggregateWindows(nil)
	if zero.Count != 0 || zero.Throughput != 0 {
		t.Fatal("empty aggregate must be zero")
	}
}

// DurationThroughput converts audio-style workloads where throughput is
// measured as processed input duration per second (the paper's Deep
// Speech 2 adjustment) rather than sample count.
func DurationThroughput(samplesPerSec, meanSampleDurationSec float64) float64 {
	return samplesPerSec * meanSampleDurationSec
}
