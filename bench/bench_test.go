package main

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"testing"
	"time"

	"tbd/internal/tensor"
)

func TestQuantile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.5, 3}, {1, 5}, {0.125, 1.5}} {
		if got := quantile(xs, c.q); got != c.want {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := quantile(nil, 0.5); got != 0 {
		t.Errorf("quantile of nothing = %v, want 0", got)
	}
	if got := median([]float64{9, 1, 5, 3}); got != 4 {
		t.Errorf("median = %v, want 4", got)
	}
}

// The tail a run reports is the highest percentile with at least ten
// samples beyond it.
func TestTopPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{10, 50}, {39, 50}, {40, 75}, {100, 90}, {200, 95}, {999, 95}, {1000, 99}, {10000, 99.9}, {100000, 99.99}} {
		xs := make([]float64, c.n)
		for i := range xs {
			xs[i] = float64(i)
		}
		pct, v := topPercentile(xs)
		if pct != c.want {
			t.Errorf("%d samples: tail p%v, want p%v", c.n, pct, c.want)
		}
		if beyond := float64(c.n-1) - v; pct > 50 && beyond < 9 {
			t.Errorf("%d samples: only %v samples beyond p%v", c.n, beyond, pct)
		}
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{"step", 0, 100, -1, 0},
		{"a", 10, 30, 0, 0},  // 20 inside the step
		{"b", 20, 50, 0, 0},  // overlaps a: adds only 30..50
		{"c", 90, 120, 0, 0}, // overhangs: clipped to 90..100
		{"a.child", 10, 25, 1, 0},
		{"step", 100, 200, -1, 1}, // no children
	}
	wall := startClock(time.Now(), true)
	want := []int64{100 - 20 - 20 - 10, 5, 30, 30, 15, 100}
	if got := selfTimes(spans); !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
	if got, want := unattributedShare(spans), 150.0/200; got != want {
		t.Errorf("unattributedShare = %v, want %v", got, want)
	}
	// Op 0 enters "a" once for 20 ns; a second entry adds to the same op.
	spans = append(spans, span{"a", 60, 70, 0, 0})
	if got, want := spanMsPerOp(wall, spans, "a"), 30e-6; math.Abs(got-want) > 1e-12 {
		t.Errorf("spanMsPerOp = %v, want %v", got, want)
	}
	if got := spanMsPerOp(wall, spans, "never"); got != 0 {
		t.Errorf("spanMsPerOp of an absent span = %v, want 0", got)
	}
}

func TestTracerNesting(t *testing.T) {
	tr := &tracer{t0: time.Now()}
	root := tr.root("step", 7)
	child := tr.begin("graph.forward", root)
	tr.end(child)
	tr.end(root)
	merged := appendSpans([]span{{Name: "other", Parent: -1}}, tr.spans)
	if got := merged[2]; got.Parent != 1 || got.Op != 7 || got.End < got.Start {
		t.Errorf("merged child span = %+v, want parent 1, op 7", got)
	}
}

// A stretch of time counts at the clock read around it: the median chain
// time of the samples nearby, so that one stray sample changes nothing.
func TestClockScale(t *testing.T) {
	c := &clock{}
	for i := 0; i < 200; i++ {
		ns := float64(refChainNs) // first half: at the reference clock
		if i >= 100 {
			ns *= 2 // second half: the clock halved
		}
		c.at, c.ns, c.unit = append(c.at, int64(i)*10), append(c.ns, ns), append(c.unit, 0)
	}
	c.ns[30], c.ns[150] = 5*refChainNs, refChainNs/10 // strays
	for _, k := range []struct {
		from, to int64
		want     float64
	}{
		{200, 400, 200},   // reference clock: as read, stray at 300 ignored
		{1400, 1600, 100}, // half clock: a wall second is half a reference second
		{-50, 100, 150},   // before the first sample: at the first's rate
		{1990, 2100, 55},  // after the last: at the last's rate
		{305, 305, 0},
	} {
		if got := c.scale(k.from, k.to); math.Abs(got-k.want) > 1e-9 {
			t.Errorf("scale(%d, %d) = %v, want %v", k.from, k.to, got, k.want)
		}
	}
	// Across the change the rate follows the median, which flips where half
	// the window's samples are on either side: at sample 100.
	if got := c.scale(900, 1100); math.Abs(got-150) > 1e-9 {
		t.Errorf("scale across the clock change = %v, want 150", got)
	}
	if got := startClock(time.Now(), true).scale(10, 40); got != 30 {
		t.Errorf("wall clock scale = %v, want 30", got)
	}
}

func TestPoissonScheduleFollowsSeed(t *testing.T) {
	a := poissonSchedule(tensor.NewRNG(3), 2000, time.Second)
	b := poissonSchedule(tensor.NewRNG(3), 2000, time.Second)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("one seed gave two schedules")
	}
	if c := poissonSchedule(tensor.NewRNG(4), 2000, time.Second); reflect.DeepEqual(a, c) {
		t.Fatal("two seeds gave one schedule")
	}
	if len(a) < 1800 || len(a) > 2200 {
		t.Errorf("%d arrivals in 1 s at 2000/s", len(a))
	}
	for i := 1; i < len(a); i++ {
		if a[i] < a[i-1] || a[i] >= time.Second {
			t.Fatalf("arrival %d at %v after %v", i, a[i], a[i-1])
		}
	}
}

// inProcess runs a slice in the test's own process, with short windows
// and without the warm-up that only steadies timings.
func inProcess(kind string, w *workload, seed uint64, window time.Duration) (*sliceResult, error) {
	return runSlice(kind, w, &sliceCtx{seed: seed, window: window, smoke: true, spawned: time.Now()}), nil
}

// TestSmoke runs every workload end to end for 0.3 s, so that a change to
// any entry point the benchmark imports fails `go test ./...` at once. It
// asserts correctness only, never a timing.
func TestSmoke(t *testing.T) {
	const window = 300 * time.Millisecond
	for _, set := range runRounds(inProcess, workloads, 1, 1, window) {
		res := endToEndResult(set.slices)
		if !res.correct || res.metrics["ok_share"] != 1 {
			t.Errorf("%s: correct %v, ok_share %v, %d of %d ops failed: %s",
				set.w.name, res.correct, res.metrics["ok_share"], res.failed, res.attempted, set.slices[0].PrefixErr)
		}
		for _, d := range endToEnd {
			if !(res.metrics[d.name] > 0) {
				t.Errorf("%s/%s = %v, want a positive number", set.w.name, d.name, res.metrics[d.name])
			}
		}
	}
}

// The traced step is TrainClassifierStep spelled out call by call; it must
// land on the very same loss, and its spans must account for the step.
func TestTracedStepFollowsTrainClassifierStep(t *testing.T) {
	w := workloadByName("train_conv")
	plain, _ := inProcess("plain", w, 1, 100*time.Millisecond)
	traced, _ := inProcess("traced", w, 1, 100*time.Millisecond)
	if plain.PrefixErr != "" || traced.PrefixErr != "" {
		t.Fatalf("prefix failed: %q, %q", plain.PrefixErr, traced.PrefixErr)
	}
	if plain.WarmLoss != traced.WarmLoss {
		t.Errorf("loss after warm-up: traced %v, untraced %v", traced.WarmLoss, plain.WarmLoss)
	}
	if len(traced.Spans) == 0 || traced.Layer["graph.forward_ms"] <= 0 || traced.Layer["data.batch_gen_ms"] <= 0 {
		t.Errorf("traced slice recorded %d spans, forward %v ms", len(traced.Spans), traced.Layer["graph.forward_ms"])
	}
	if u := traced.Layer["graph.unattributed_share"]; u < 0 || u > 0.2 {
		t.Errorf("unattributed share %v", u)
	}
}

// BENCHMARK.json and the tables in main.go must name the same workloads
// and metrics with the same units.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct{ Name, Unit string }
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in code", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.name {
			t.Errorf("workload %d: %q in BENCHMARK.json, %q in code", i, spec.Workloads[i].Name, w.name)
		}
	}
	check := func(kind string, got []metric, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics in BENCHMARK.json, %d in code", kind, len(got), len(want))
			return
		}
		for i, d := range want {
			if got[i].Name != d.name || got[i].Unit != d.unit {
				t.Errorf("%s metric %d: %v in BENCHMARK.json, %v in code", kind, i, got[i], d)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
}
