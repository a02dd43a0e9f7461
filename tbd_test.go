package tbd

import (
	"bytes"
	"io"
	"math"
	"strings"
	"testing"
	"time"

	"tbd/internal/core"
	"tbd/internal/prof"
	"tbd/internal/sim"
	"tbd/internal/whatif"
)

func TestBenchmarksSurface(t *testing.T) {
	bs := Benchmarks()
	if len(bs) != 8 {
		t.Fatalf("Benchmarks() = %d entries, want 8", len(bs))
	}
	for _, b := range bs {
		if b.Name == "" || b.Dataset == "" || len(b.Frameworks) == 0 || len(b.BatchSizes) == 0 {
			t.Fatalf("incomplete benchmark info: %+v", b)
		}
	}
	if len(Frameworks()) != 3 || len(GPUs()) != 3 {
		t.Fatal("framework/GPU registries wrong")
	}
}

func TestProfileTraining(t *testing.T) {
	p, err := ProfileTraining("ResNet-50", "MXNet", "Quadro P4000", 32)
	if err != nil {
		t.Fatal(err)
	}
	if p.Throughput <= 0 || p.GPUUtil <= 0 || p.GPUUtil > 1 || p.IterTimeSec <= 0 {
		t.Fatalf("degenerate profile: %+v", p)
	}
	if p.Implementation != "ResNet-50" || p.BatchUnit != "samples" {
		t.Fatalf("profile metadata wrong: %+v", p)
	}
	// Variant naming surfaces.
	p2, err := ProfileTraining("Seq2Seq", "MXNet", "", 64)
	if err != nil {
		t.Fatal(err)
	}
	if p2.Implementation != "Sockeye" {
		t.Fatalf("implementation = %s, want Sockeye", p2.Implementation)
	}
}

func TestProfileTrainingValidation(t *testing.T) {
	if _, err := ProfileTraining("Transformer", "CNTK", "", 64); err == nil {
		t.Fatal("Transformer has no CNTK implementation; want error")
	}
	if _, err := ProfileTraining("NoSuchModel", "MXNet", "", 8); err == nil {
		t.Fatal("unknown model must fail")
	}
	if _, err := ProfileTraining("ResNet-50", "Caffe", "", 8); err == nil {
		t.Fatal("unknown framework must fail")
	}
	if _, err := ProfileTraining("ResNet-50", "MXNet", "V100", 8); err == nil {
		t.Fatal("unknown GPU must fail")
	}
	if _, err := ProfileTraining("ResNet-50", "MXNet", "", 0); err == nil {
		t.Fatal("zero batch must fail")
	}
}

// TestEntryPointsRejectBadBatch runs every per-configuration entry point
// at a zero and a negative batch: each must return an error, not panic
// or report a number.
func TestEntryPointsRejectBadBatch(t *testing.T) {
	entries := map[string]func(batch int) error{
		"ProfileTraining": func(b int) error { _, err := ProfileTraining("ResNet-50", "TensorFlow", "", b); return err },
		"LowUtilizationKernels": func(b int) error {
			_, err := LowUtilizationKernels("ResNet-50", "TensorFlow", "", b, 5)
			return err
		},
		"ProfileMemory": func(b int) error { _, err := ProfileMemory("ResNet-50", "TensorFlow", b); return err },
		"ScalingStudy":  func(b int) error { _, err := ScalingStudy("ResNet-50", "TensorFlow", []int{8, b}); return err },
		"WorkspaceTradeoff": func(b int) error {
			_, err := WorkspaceTradeoff("ResNet-50", "TensorFlow", b, []int64{1 << 30})
			return err
		},
		"ProfilePhases":  func(b int) error { _, err := ProfilePhases("ResNet-50", "TensorFlow", "", b); return err },
		"AnalyzeOffload": func(b int) error { _, err := AnalyzeOffload("ResNet-50", "TensorFlow", b, 1<<30); return err },
		"Analyze":        func(b int) error { _, err := Analyze("ResNet-50", "TensorFlow", "", b); return err },
		"ExportTrace":    func(b int) error { return ExportTrace("ResNet-50", "TensorFlow", "", b, io.Discard) },
	}
	for name, call := range entries {
		for _, b := range []int{0, -3} {
			if err := call(b); err == nil || !strings.Contains(err.Error(), "batch must be positive") {
				t.Errorf("%s at batch %d: error %v, want a non-positive batch refused", name, b, err)
			}
		}
	}
}

// TestEntryPointsRejectNegativeCount holds the top-n entry points to a
// named error for n < 0, where slicing the ranking would panic.
func TestEntryPointsRejectNegativeCount(t *testing.T) {
	if _, err := LowUtilizationKernels("ResNet-50", "TensorFlow", "", 32, -1); err == nil || !strings.Contains(err.Error(), "kernel count must be non-negative") {
		t.Errorf("LowUtilizationKernels at n=-1: error %v, want a negative count refused", err)
	}
	if _, err := TopMemoryConsumers("ResNet-50", 32, -1); err == nil || !strings.Contains(err.Error(), "consumer count must be non-negative") {
		t.Errorf("TopMemoryConsumers at n=-1: error %v, want a negative count refused", err)
	}
}

func TestLowUtilizationKernels(t *testing.T) {
	ks, err := LowUtilizationKernels("ResNet-50", "TensorFlow", "", 32, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(ks) != 5 {
		t.Fatalf("got %d kernels, want 5", len(ks))
	}
	foundBN := false
	for _, k := range ks {
		if strings.Contains(k.Name, "bn_") {
			foundBN = true
		}
	}
	if !foundBN {
		t.Fatal("batch-norm kernels missing (Tables 5/6)")
	}
}

func TestProfileMemory(t *testing.T) {
	bd, err := ProfileMemory("ResNet-50", "MXNet", 32)
	if err != nil {
		t.Fatal(err)
	}
	if bd.FeatureMaps <= bd.Weights {
		t.Fatal("feature maps should dominate weights (Observation 11)")
	}
	share := bd.FeatureMapShare()
	if share < 0.5 || share > 0.95 {
		t.Fatalf("feature-map share %.2f", share)
	}
	if bd.Dynamic == 0 {
		t.Fatal("MXNet must report dynamic memory")
	}
}

func TestMaxBatch(t *testing.T) {
	small, err := MaxBatch("ResNet-50", "TensorFlow", 2<<30)
	if err != nil {
		t.Fatal(err)
	}
	large, err := MaxBatch("ResNet-50", "TensorFlow", 16<<30)
	if err != nil {
		t.Fatal(err)
	}
	if small >= large || large != 64 {
		t.Fatalf("max batches %d, %d", small, large)
	}
}

func TestScalingStudy(t *testing.T) {
	rs, err := ScalingStudy("ResNet-50", "MXNet", []int{16})
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 5 {
		t.Fatalf("scaling study rows = %d, want 5 configs", len(rs))
	}
	byName := map[string]ScalingResult{}
	for _, r := range rs {
		byName[r.Cluster.Name] = r
	}
	if byName["2M1G (ethernet)"].Throughput >= byName["1M1G"].Throughput {
		t.Fatal("ethernet must collapse")
	}
}

func TestExperimentRegistry(t *testing.T) {
	ids := ExperimentIDs()
	if len(ids) != 14 {
		t.Fatalf("got %d experiments, want 14", len(ids))
	}
	title, err := ExperimentTitle("fig9")
	if err != nil || !strings.Contains(title, "memory") {
		t.Fatalf("fig9 title = %q, %v", title, err)
	}
	if _, err := ExperimentTitle("nope"); err == nil {
		t.Fatal("unknown id must fail")
	}
}

func TestRunExperimentRenders(t *testing.T) {
	var buf bytes.Buffer
	if err := RunExperiment("table4", &buf, RunOptions{}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "Quadro P4000") {
		t.Fatalf("table4 output missing device:\n%s", buf.String())
	}
	buf.Reset()
	if err := RunExperiment("fig10", &buf, RunOptions{CSV: true}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "series,x,y") {
		t.Fatal("CSV mode did not emit CSV")
	}
	if err := RunExperiment("fig99", &buf, RunOptions{}); err == nil {
		t.Fatal("unknown experiment must fail")
	}
	buf.Reset()
	if err := RunExperiment("fig8", &buf, RunOptions{GPU: "TITAN Xp"}); err != nil {
		t.Fatal(err)
	}
}

func TestCheckObservationsAllHold(t *testing.T) {
	obs := CheckObservations()
	if len(obs) != 13 {
		t.Fatalf("got %d observations, want 13", len(obs))
	}
	for _, o := range obs {
		if !o.Holds {
			t.Errorf("observation %d failed: %s (%s)", o.ID, o.Claim, o.Detail)
		}
	}
}

func TestIterationFLOPs(t *testing.T) {
	one, err := IterationFLOPs("ResNet-50", 1)
	if err != nil {
		t.Fatal(err)
	}
	thirtyTwo, err := IterationFLOPs("ResNet-50", 32)
	if err != nil {
		t.Fatal(err)
	}
	ratio := thirtyTwo / one
	if ratio < 30 || ratio > 34 {
		t.Fatalf("FLOPs should scale ~linearly with batch, ratio %.1f", ratio)
	}
}

func TestExtensionBenchmarks(t *testing.T) {
	exts := ExtensionBenchmarks()
	if len(exts) == 0 || exts[0].Name != "YOLO9000" {
		t.Fatalf("extensions = %+v", exts)
	}
	// Extensions are profileable like suite models.
	p, err := ProfileTraining("YOLO9000", "MXNet", "", 8)
	if err != nil {
		t.Fatal(err)
	}
	if p.Throughput <= 0 {
		t.Fatal("extension profile degenerate")
	}
}

func TestProfilePhases(t *testing.T) {
	p, err := ProfilePhases("ResNet-50", "TensorFlow", "", 32)
	if err != nil {
		t.Fatal(err)
	}
	if p.BackwardSec <= p.ForwardSec {
		t.Fatal("backward should outweigh forward")
	}
	if p.UpdateSec <= 0 || p.ForwardKernels == 0 {
		t.Fatalf("degenerate phases: %+v", p)
	}
	if _, err := ProfilePhases("nope", "TensorFlow", "", 8); err == nil {
		t.Fatal("unknown model must fail")
	}
}

func TestTopMemoryConsumers(t *testing.T) {
	cs, err := TopMemoryConsumers("Seq2Seq", 64, 6)
	if err != nil {
		t.Fatal(err)
	}
	if len(cs) != 6 {
		t.Fatalf("got %d consumers", len(cs))
	}
	// The 17188-vocabulary softmax dominates, with the LSTM stashes
	// close behind.
	if cs[0].Kind.String() != "loss" {
		t.Fatalf("top consumer layer %q, want the vocabulary loss", cs[0].Kind)
	}
	sawLSTM := false
	for i, c := range cs {
		if c.Kind.String() == "lstm" {
			sawLSTM = true
		}
		if i > 0 && c.FeatureMapBytes > cs[i-1].FeatureMapBytes {
			t.Fatal("not sorted")
		}
	}
	if !sawLSTM {
		t.Fatal("LSTM stashes missing from the top consumers")
	}
}

func TestAnalyzeOffload(t *testing.T) {
	bd, err := ProfileMemory("ResNet-50", "TensorFlow", 64)
	if err != nil {
		t.Fatal(err)
	}
	target := bd.Total() / 2
	a, err := AnalyzeOffload("ResNet-50", "TensorFlow", 64, target)
	if err != nil {
		t.Fatal(err)
	}
	if !a.Fits(target) || a.OffloadedBytes == 0 || a.TransferSecPerIter <= 0 {
		t.Fatalf("offload analysis degenerate: %+v", a)
	}
	if a.RemainingFootprint > target {
		t.Fatal("remaining footprint exceeds target despite Fits")
	}
	// Already-fitting target is a no-op.
	a2, err := AnalyzeOffload("A3C", "MXNet", 8, 1<<40)
	if err != nil {
		t.Fatal(err)
	}
	if a2.OffloadedBytes != 0 {
		t.Fatal("no-op offload moved data")
	}
}

// TestExportTrace holds the simulated iteration to the one trace file's
// contract: it reads back, its kernel spans are the result's kernels and
// sum to its busy time, its non-kernel self time is the result's idle
// gap (each within 1 ns a kernel), and an empty what-if scenario replays
// its step back exactly.
func TestExportTrace(t *testing.T) {
	for _, c := range []struct {
		model string
		batch int
	}{{"ResNet-50", 32}, {"Seq2Seq", 64}} {
		var buf bytes.Buffer
		if err := ExportTrace(c.model, "TensorFlow", "", c.batch, &buf); err != nil {
			t.Fatal(err)
		}
		tr, err := prof.ReadTrace(&buf)
		if err != nil {
			t.Fatalf("%s: %v", c.model, err)
		}
		m, f, g, err := core.Resolve(c.model, "TensorFlow", "", c.batch)
		if err != nil {
			t.Fatal(err)
		}
		res := sim.Simulate(m.Ops(), m.SamplesForBatch(c.batch), f.Style, core.SimConfigFor(m, f, g))
		trees, err := tr.Trees()
		if err != nil || len(trees) != 1 {
			t.Fatalf("%s: %d trees, %v", c.model, len(trees), err)
		}
		var n int
		var busy, gap time.Duration
		for _, nd := range trees[0].Nodes {
			if nd.Cat == prof.CatKernel {
				n++
				busy += nd.Dur
			} else {
				gap += nd.Self
			}
		}
		tol := float64(res.KernelCount) * 1e-9
		if n != res.KernelCount {
			t.Fatalf("%s: %d kernel spans, result counts %d", c.model, n, res.KernelCount)
		}
		if d := busy.Seconds() - res.GPUBusySec; math.Abs(d) > tol {
			t.Fatalf("%s: kernel spans sum to %v, result busy %.9f s", c.model, busy, res.GPUBusySec)
		}
		if d := gap.Seconds() - res.GapSec; math.Abs(d) > tol {
			t.Fatalf("%s: non-kernel self time %v, result gap %.9f s", c.model, gap, res.GapSec)
		}
		sc, err := whatif.ParseScenario("")
		if err != nil {
			t.Fatal(err)
		}
		p, err := whatif.Replay(tr, sc)
		if err != nil {
			t.Fatalf("%s: %v", c.model, err)
		}
		if p.Steps != 1 || p.PredictedStepUs != p.BaselineStepUs || p.PredictedWallUs != p.BaselineWallUs {
			t.Fatalf("%s: empty scenario replays %d steps, step %.3f -> %.3f µs, wall %.3f -> %.3f µs",
				c.model, p.Steps, p.BaselineStepUs, p.PredictedStepUs, p.BaselineWallUs, p.PredictedWallUs)
		}
	}
	if err := ExportTrace("nope", "MXNet", "", 8, io.Discard); err == nil {
		t.Fatal("unknown model must fail")
	}
}

func TestObservation10ExtrapolatesToV100(t *testing.T) {
	// The V100 extension continues the Titan Xp trend where it should:
	// more throughput at every batch, and at small batches its extra
	// cores sit even emptier (lower occupancy -> lower GPU and FP32
	// utilization). At large batches its HBM2 bandwidth *improves*
	// FP32 efficiency relative to the Titan Xp — the balanced-machine
	// effect, not a violation of Observation 10.
	xp, err := ProfileTraining("ResNet-50", "MXNet", "TITAN Xp", 4)
	if err != nil {
		t.Fatal(err)
	}
	v100, err := ProfileTraining("ResNet-50", "MXNet", "Tesla V100", 4)
	if err != nil {
		t.Fatal(err)
	}
	if v100.Throughput <= xp.Throughput {
		t.Fatalf("V100 throughput %.1f <= Titan Xp %.1f", v100.Throughput, xp.Throughput)
	}
	if v100.FP32Util >= xp.FP32Util || v100.GPUUtil >= xp.GPUUtil {
		t.Fatalf("V100 small-batch utilization (%.2f/%.2f) should drop below Titan Xp (%.2f/%.2f)",
			v100.GPUUtil, v100.FP32Util, xp.GPUUtil, xp.FP32Util)
	}
	// P4000 remains the best-utilized card of the three.
	p4, err := ProfileTraining("ResNet-50", "MXNet", "", 4)
	if err != nil {
		t.Fatal(err)
	}
	if p4.GPUUtil <= v100.GPUUtil {
		t.Fatal("smallest card should be best utilized")
	}
}

func TestSetEngineParallelism(t *testing.T) {
	defer SetEngineParallelism(1)
	if got := SetEngineParallelism(0); got != 1 {
		t.Fatalf("SetEngineParallelism(0) = %d", got)
	}
	// Parallel execution must not change training results.
	SetEngineParallelism(4)
	run, err := TrainTwin("ResNet-50", 30, 7)
	if err != nil {
		t.Fatal(err)
	}
	SetEngineParallelism(1)
	run2, err := TrainTwin("ResNet-50", 30, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(run.Points) != len(run2.Points) {
		t.Fatal("parallelism changed the curve length")
	}
	for i := range run.Points {
		if run.Points[i].Value != run2.Points[i].Value {
			t.Fatalf("parallelism changed training results at point %d", i)
		}
	}
}
