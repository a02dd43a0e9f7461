package tbd

// Golden-trace validation of the Daydream-style what-if predictor: a
// recorder (env-gated; `make whatif-record`) captures dependence-graph
// traces of real runs on the benchmark machine, and the always-on tests
// below replay the committed traces under scenarios whose "measured"
// answer is another committed trace or a committed BENCH_numeric.json
// number. Replay is deterministic, so the tests pin the predictor's
// error against ground truth without re-running the workloads.

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"

	"tbd/internal/data"
	"tbd/internal/dist"
	"tbd/internal/graph"
	"tbd/internal/models"
	"tbd/internal/optim"
	"tbd/internal/prof"
	"tbd/internal/tensor"
	"tbd/internal/whatif"
)

const whatifTraceDir = "testdata/whatif"

// The train_gemm traces. The recorder writes mlp1024TraceName on this
// commit; the other three are the same recorder run on earlier commits and
// cannot be re-recorded: unblocked on e621355, before the wide GEMM driver
// got its k-loop, blocked on 7cfdd68, before ReLU went branch-free, and
// vecrelu on 21f7e8e, while the training step still asked its first layer
// for an input gradient.
const (
	mlp1024UnblockedTrace = "mlp1024_unblocked.json"
	mlp1024BlockedTrace   = "mlp1024_blocked.json"
	mlp1024VecReLUTrace   = "mlp1024_vecrelu.json"
	mlp1024TraceName      = "mlp1024_nodx.json"
)

// Committed per-tier GEMM throughput at 256x256 from BENCH_numeric.json
// (BenchmarkGEMMTier) — the measured micro-kernel ratios the tier
// scenarios are built from.
const (
	gemmGFsRef  = 3.621
	gemmGFsSSE  = 27.13
	gemmGFsAVX2 = 62.65
)

// whatifErrBound is the acceptance bound on prediction error vs ground
// truth (ISSUE: >= 3 ground truths within <= 20%).
const whatifErrBound = 0.20

// recordWhatifTrace captures steps calls of step under the given GEMM
// kernel tier, serial and pooled. Two warm-up calls run unprofiled so the
// buffer pools and pack caches reach steady state before the recorded
// window.
func recordWhatifTrace(meta whatif.Meta, step func()) (*whatif.Trace, error) {
	orig := tensor.GemmKernelTier()
	if _, err := tensor.SetGemmKernelTier(meta.KernelTier); err != nil {
		return nil, err
	}
	prevPool := tensor.SetPooling(true)
	tensor.SetParallelism(1)
	defer func() {
		tensor.SetPooling(prevPool)
		if _, err := tensor.SetGemmKernelTier(orig); err != nil {
			panic(err)
		}
	}()
	for i := 0; i < 2; i++ {
		step()
	}
	prof.EnableWithMaxRecords(1 << 20)
	for i := 0; i < meta.Steps; i++ {
		step()
	}
	prof.Disable()
	meta.Parallel = 1
	return whatif.Capture(meta)
}

// recordTwinWhatifTrace captures the BenchmarkTwinStep/pooled workload
// (the numeric ResNet twin, Adam, clip 5) under the given GEMM kernel
// tier and batch size.
func recordTwinWhatifTrace(tier string, steps, batch int) (*whatif.Trace, error) {
	rng := tensor.NewRNG(10)
	src := data.NewImageSource(rng, 3, 16, 16, 10, 0.3)
	net := models.NumericResNet(rng, 3, 16, 10)
	opt := optim.NewAdam(0.01)
	b := src.Batch(batch)
	return recordWhatifTrace(whatif.Meta{Model: "numeric-resnet", Steps: steps, Batch: batch, KernelTier: tier},
		func() { graph.TrainClassifierStep(net, opt, b.X, b.Labels, 5) })
}

// recordMLP1024WhatifTrace captures bench/'s train_gemm step: the
// 1024-1024-1024-10 MLP at batch 256, momentum SGD, clip 5, avx2 tier —
// three 256x1024x1024 GEMM layouts a step, two of them with k = 1024.
func recordMLP1024WhatifTrace(steps int) (*whatif.Trace, error) {
	const batch = 256
	rng := tensor.NewRNG(10)
	net := models.NumericServeMLP(rng, 1024, 1024, 10)
	opt := optim.NewMomentum(0.01, 0.9)
	x, labels := dist.SyntheticBatch(rng, []int{1024}, 10, batch)
	return recordWhatifTrace(whatif.Meta{Model: "serve-mlp-1024", Steps: steps, Batch: batch, KernelTier: "avx2"},
		func() { graph.TrainClassifierStep(net, opt, x, labels, 5) })
}

// TestRecordWhatifGoldenTraces re-records the committed twin traces.
// Gated behind TBD_WHATIF_RECORD=1 because the captures are only
// meaningful on the benchmark machine the BENCH_*.json baselines came
// from; `make whatif-record` runs it (and the dist trace recording).
//
// The three earlier mlp1024 traces (see the constants above) are the
// "before" sides of TestWhatifGroundTruthGemmBlocking, ...VecReLU and
// ...DropDX and are not re-recorded here.
func TestRecordWhatifGoldenTraces(t *testing.T) {
	if os.Getenv("TBD_WHATIF_RECORD") == "" {
		t.Skip("set TBD_WHATIF_RECORD=1 (make whatif-record) to re-record golden traces")
	}
	if err := os.MkdirAll(whatifTraceDir, 0o755); err != nil {
		t.Fatal(err)
	}
	write := func(name string, tr *whatif.Trace, err error) {
		if err != nil {
			t.Fatalf("record %s: %v", name, err)
		}
		path := filepath.Join(whatifTraceDir, name)
		if err := tr.WriteFile(path); err != nil {
			t.Fatal(err)
		}
		t.Logf("recorded %s: %d spans, wall %.1f ms", path, len(tr.Spans), tr.WallUs/1e3)
	}
	record := func(name, tier string, batch int) {
		tr, err := recordTwinWhatifTrace(tier, 10, batch)
		write(name, tr, err)
	}
	for _, tier := range tensor.GemmKernelTiers() {
		record("twin_"+tier+".json", tier, 32)
	}
	record("twin_avx2_b64.json", "avx2", 64)
	tr, err := recordMLP1024WhatifTrace(10)
	write(mlp1024TraceName, tr, err)
}

// loadGoldenTrace reads a committed golden trace, failing with the
// re-record recipe if it is missing.
func loadGoldenTrace(t testing.TB, name string) *whatif.Trace {
	t.Helper()
	tr, err := whatif.ReadFile(filepath.Join(whatifTraceDir, name))
	if err != nil {
		t.Fatalf("golden trace %s: %v (re-record with: make whatif-record)", name, err)
	}
	return tr
}

// replayGolden replays a committed trace under a scenario spec.
func replayGolden(t testing.TB, tr *whatif.Trace, spec string) *whatif.Prediction {
	t.Helper()
	sc, err := whatif.ParseScenario(spec)
	if err != nil {
		t.Fatal(err)
	}
	pred, err := whatif.Replay(tr, sc)
	if err != nil {
		t.Fatal(err)
	}
	return pred
}

// predErrPct is |predicted-measured|/measured in percent.
func predErrPct(predictedUs, measuredUs float64) float64 {
	return 100 * math.Abs(predictedUs-measuredUs) / measuredUs
}

// checkGroundTruth asserts one time prediction lands within the error
// bound of its measured ground truth, logging the cell for EXPERIMENTS.md.
func checkGroundTruth(t *testing.T, label string, predictedUs, measuredUs float64) {
	t.Helper()
	checkGroundTruthUnit(t, label, "ms", predictedUs/1e3, measuredUs/1e3)
}

// checkGroundTruthUnit is the unit-agnostic core (time cells pass ms,
// memory cells pass MB).
func checkGroundTruthUnit(t *testing.T, label, unit string, predicted, measured float64) {
	t.Helper()
	errPct := predErrPct(predicted, measured)
	t.Logf("%s: predicted %.3f %s, measured %.3f %s, error %.1f%%",
		label, predicted, unit, measured, unit, errPct)
	if errPct > 100*whatifErrBound {
		t.Errorf("%s: predicted %.3f %s vs measured %.3f %s — error %.1f%% exceeds the %.0f%% bound",
			label, predicted, unit, measured, unit, errPct, 100*whatifErrBound)
	}
}

// tierSpec builds the "speed up the GEMM micro-kernels by the measured
// tier ratio" scenario. The numeric engine dispatches those micro-kernels
// from the standalone gemm.* spans AND from inside conv2d.* (conv is
// im2col + blocked GEMM; the im2col/col2im data movement has its own
// spans and does not speed up), so the class glob covers both.
func tierSpec(fromGFs, toGFs float64) string {
	r := toGFs / fromGFs
	return fmt.Sprintf("speedup=gemm*:%.3f,speedup=conv2d*:%.3f", r, r)
}

// TestWhatifGroundTruthRefToAVX2 is the PR-2 replay: starting from the
// scalar-reference trace, "speed up the GEMM micro-kernels by the
// measured tier ratio" must reproduce the step time actually measured
// with the AVX2 micro-kernels (the BenchmarkTwinStep delta of the
// kernel-tier PR, re-recorded as committed traces).
func TestWhatifGroundTruthRefToAVX2(t *testing.T) {
	ref := loadGoldenTrace(t, "twin_ref.json")
	avx2 := loadGoldenTrace(t, "twin_avx2.json")
	spec := tierSpec(gemmGFsRef, gemmGFsAVX2)
	pred := replayGolden(t, ref, spec)
	measured := replayGolden(t, avx2, "") // identity replay = baseline step time
	checkGroundTruth(t, "ref->avx2 ("+spec+")", pred.PredictedStepUs, measured.BaselineStepUs)
}

// TestWhatifGroundTruthSSEToAVX2 predicts the sse->avx2 tier upgrade
// from the SSE trace using the committed 256x256 tier ratio.
func TestWhatifGroundTruthSSEToAVX2(t *testing.T) {
	sse := loadGoldenTrace(t, "twin_sse.json")
	avx2 := loadGoldenTrace(t, "twin_avx2.json")
	spec := tierSpec(gemmGFsSSE, gemmGFsAVX2)
	pred := replayGolden(t, sse, spec)
	measured := replayGolden(t, avx2, "")
	checkGroundTruth(t, "sse->avx2 ("+spec+")", pred.PredictedStepUs, measured.BaselineStepUs)
}

// TestWhatifGroundTruthRingBandwidth predicts the effect of throttling
// the 4-worker ring all-reduce run to 1 GbE, starting from the
// unthrottled cluster trace. Ground truth (committed trace, matching
// the BENCH_dist cells): mlp-wide's ~2.4 MB per-rank ring traffic is
// NOT wire-limited at 1 GbE on this host, so the honest prediction is
// "throttling costs almost nothing" — a predictor that prices comm
// naively as volume/bandwidth would wrongly predict a big slowdown.
func TestWhatifGroundTruthRingBandwidth(t *testing.T) {
	free := loadGoldenTrace(t, "dist_ring_nolimit.json")
	throttled := loadGoldenTrace(t, "dist_ring_1gbe.json")
	pred := replayGolden(t, free, "bw=1gbe")
	measured := replayGolden(t, throttled, "")
	checkGroundTruth(t, "ring unthrottled->1gbe (bw=1gbe)", pred.PredictedStepUs, measured.BaselineStepUs)
}

// TestWhatifGroundTruthBatchScaling predicts doubling the batch from
// the batch-32 AVX2 trace and checks both predictions — step time and
// peak memory — against the committed batch-64 recording.
func TestWhatifGroundTruthBatchScaling(t *testing.T) {
	b32 := loadGoldenTrace(t, "twin_avx2.json")
	b64 := loadGoldenTrace(t, "twin_avx2_b64.json")
	pred := replayGolden(t, b32, "batch=64")
	measured := replayGolden(t, b64, "")
	checkGroundTruth(t, "batch 32->64 step time (batch=64)", pred.PredictedStepUs, measured.BaselineStepUs)
	checkGroundTruthUnit(t, "batch 32->64 peak memory (batch=64)", "MB",
		float64(pred.MemAfter.PeakTotal)/(1<<20), float64(b64.Mem.PeakTotal)/(1<<20))
}

// spanGFLOPs is the rate a trace's spans of one name reach together:
// their FLOPs ÷ their time.
func spanGFLOPs(tr *whatif.Trace, name string) float64 {
	var flops, us float64
	for _, s := range tr.Spans {
		if s.Name == name {
			flops += s.FLOPs
			us += s.DurUs
		}
	}
	return flops / us / 1e3
}

// gemmBlockingSpec is the prediction committed before the wide GEMM
// driver got its k-loop: "the k = 1024 GEMMs (forward and dX) run at the
// rate the k = 256 ones (dW, whose packed B panel already fits L2) reach
// in the same trace".
func gemmBlockingSpec(tr *whatif.Trace) string {
	g := spanGFLOPs(tr, "gemm.dW")
	return fmt.Sprintf("kernelmodel=gemm.bias_act:%.2f,kernelmodel=gemm.dX:%.2f", g, g)
}

// TestWhatifGroundTruthGemmBlocking replays the train_gemm step recorded
// on the unblocked driver under that scenario against the same step
// recorded after the k-loop landed. The model has no term for pack-B
// time, which blocking does not speed up (EXPERIMENTS.md has the split).
func TestWhatifGroundTruthGemmBlocking(t *testing.T) {
	unblocked := loadGoldenTrace(t, mlp1024UnblockedTrace)
	spec := gemmBlockingSpec(unblocked)
	pred := replayGolden(t, unblocked, spec)
	measured := replayGolden(t, loadGoldenTrace(t, mlp1024BlockedTrace), "")
	checkGroundTruth(t, "unblocked->k-blocked GEMM ("+spec+")", pred.PredictedStepUs, measured.BaselineStepUs)
}

// vecReLUSpec is the prediction committed before ReLU went branch-free:
// "the forward GEMMs, which carry the bias + ReLU epilogue, run at the rate
// the dX GEMMs of the same trace reach" — same 256x1024x1024 shape, no
// epilogue, so the gap between the two rates is the epilogue.
func vecReLUSpec(tr *whatif.Trace) string {
	return fmt.Sprintf("kernelmodel=gemm.bias_act:%.2f", spanGFLOPs(tr, "gemm.dX"))
}

// vecReLUBackwardSavingUs is the half of that prediction the blocked trace
// cannot express, added by hand: ActBackward had no span of its own (its
// time hides in fc*.bwd self time), and it runs twice a step on 262 144
// elements. Measured on the parent with BenchmarkActBackwardReLU/256x1024:
// 6.15 ns an element; predicted after: the rate of the bias add beside it,
// 0.6 ns. 2 * 262144 * (6.15 - 0.6) ns.
const vecReLUBackwardSavingUs = 2910

// predictVecReLU is the whole committed prediction for the train_gemm
// step: the replayed forward saving plus the hand-added backward one.
func predictVecReLU(t testing.TB) (predictedUs float64, spec string) {
	blocked := loadGoldenTrace(t, mlp1024BlockedTrace)
	spec = vecReLUSpec(blocked)
	return replayGolden(t, blocked, spec).PredictedStepUs - vecReLUBackwardSavingUs, spec
}

// TestWhatifGroundTruthVecReLU holds that prediction against the same step
// recorded with the vector kernels in place.
func TestWhatifGroundTruthVecReLU(t *testing.T) {
	predicted, spec := predictVecReLU(t)
	measured := replayGolden(t, loadGoldenTrace(t, mlp1024VecReLUTrace), "")
	checkGroundTruth(t, fmt.Sprintf("branchy->vector ReLU (%s, backward -%d us by hand)", spec, vecReLUBackwardSavingUs),
		predicted, measured.BaselineStepUs)
}

// dropDXSpec is the prediction committed before the training step stopped
// asking its first layer for an input gradient: that layer's dX GEMM, which
// nobody reads, is removed. The selector is a path because every layer's
// kernel span has the same name.
const dropDXSpec = "drop=step/phase.backward/fc1/gemm.dX"

// firstTouchSavingUs is the half of that prediction added by hand, the
// first gradient write of a step landing in Grad: fc1's and fc2's backward
// self time in the vecrelu trace (span minus kernel children, 1183 + 1098 us
// a step) is Param.AddGrad adding a 4 MB dW temporary into a Grad that was
// just zeroed, less 90 us a layer kept for what stays (SumRows over the
// 256x1024 gz).
const firstTouchSavingUs = 2100

// predictDropDX is the whole committed prediction for the train_gemm step.
func predictDropDX(t testing.TB) float64 {
	return replayGolden(t, loadGoldenTrace(t, mlp1024VecReLUTrace), dropDXSpec).PredictedStepUs - firstTouchSavingUs
}

// pathStepUs is what the spans at one path over parent edges take per step,
// read the way drop= selects them: the step as recorded against the step
// without them. Zero when the trace has no span there.
func pathStepUs(t testing.TB, tr *whatif.Trace, path string) float64 {
	p := replayGolden(t, tr, "drop="+path)
	return p.BaselineStepUs - p.PredictedStepUs
}

// measuredDropDX is the step of the trace recorded with both changes in
// place, with host drift divided out by a span that runs the same code in
// both recordings: fc2's weight-gradient GEMM (a second write in neither).
func measuredDropDX(t testing.TB) float64 {
	const control = "step/phase.backward/fc2/gemm.dW"
	before, after := loadGoldenTrace(t, mlp1024VecReLUTrace), loadGoldenTrace(t, mlp1024TraceName)
	return replayGolden(t, after, "").BaselineStepUs * pathStepUs(t, before, control) / pathStepUs(t, after, control)
}

// TestWhatifGroundTruthDropDX holds that prediction against the recording,
// and the recording to what the change is: the dropped span is gone from
// fc1 alone.
func TestWhatifGroundTruthDropDX(t *testing.T) {
	after := loadGoldenTrace(t, mlp1024TraceName)
	for _, layer := range []string{"fc1", "fc2", "fc3"} {
		path := "step/phase.backward/" + layer + "/gemm.dX"
		if us := pathStepUs(t, after, path); (us > 0) != (layer != "fc1") {
			t.Errorf("%s: spans at %s take %.0f us a step; only fc1 should have none", mlp1024TraceName, path, us)
		}
	}
	checkGroundTruth(t, fmt.Sprintf("first-layer dX dropped (%s, first-touch -%d us by hand)", dropDXSpec, firstTouchSavingUs),
		predictDropDX(t), measuredDropDX(t))
}

// TestWhatifGroundTruthPSBandwidth is the strongest bandwidth cell: the
// synchronous parameter server pushes every rank's full gradient vector
// through one shared server NIC, so the 1 GbE run is wire-dominated and
// the 10 GbE prediction exercises the comm model end to end. The check
// is on the comm spans themselves — the step-time residue on this
// single-core host shifts with CPU-scheduling overlap that a per-rank
// dependence replay cannot see (quantified in EXPERIMENTS.md).
func TestWhatifGroundTruthPSBandwidth(t *testing.T) {
	slow := loadGoldenTrace(t, "dist_ps_1gbe.json")
	fast := loadGoldenTrace(t, "dist_ps_10gbe.json")
	pred := replayGolden(t, slow, "bw=10gbe")
	measured := replayGolden(t, fast, "")
	predComm := commDelta(t, pred)
	measComm := commDelta(t, measured)
	checkGroundTruth(t, "ps-sync 1gbe->10gbe roundtrip time (bw=10gbe)",
		predComm.PredictedUs, measComm.BaselineUs)
}

// commDelta pulls the comm.ps.roundtrip aggregate out of a prediction's
// phase rows (totals across all ranks and steps; the 1 GbE and 10 GbE
// recordings have identical rank/step counts, so the totals compare).
func commDelta(t testing.TB, p *whatif.Prediction) whatif.Delta {
	t.Helper()
	for _, d := range p.Phases {
		if d.Name == "comm.ps.roundtrip" {
			return d
		}
	}
	t.Fatal("prediction has no comm.ps.roundtrip row")
	return whatif.Delta{}
}

// TestWhatifRecordingOverhead guards the <= 5% recording-overhead claim
// structurally: the what-if recorder is the live profiler plus span-edge
// bookkeeping, so the per-span cost delta is three atomic operations.
// The wall-clock claim itself is measured by BenchmarkTwinStep vs
// BenchmarkWhatifRecordTwin (EXPERIMENTS.md); this test asserts the
// recorder adds no per-span allocations, the cost that would break it.
func TestWhatifRecordingOverhead(t *testing.T) {
	prof.EnableWithMaxRecords(1 << 16)
	defer func() {
		prof.Disable()
		prof.SetMaxRecords(0)
	}()
	allocs := testing.AllocsPerRun(200, func() {
		parent := prof.Begin(prof.CatPhase, "step")
		child := prof.BeginChild(&parent, prof.CatKernel, "gemm.bias_act")
		child.End()
		parent.End()
	})
	// The collector appends two records per run; amortized growth of the
	// preallocated timeline stays under one alloc per span pair.
	if allocs > 2 {
		t.Fatalf("recording a parent+child span pair cost %.1f allocs/op, want <= 2", allocs)
	}
}
