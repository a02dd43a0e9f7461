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
	"maps"
	"math"
	"os"
	"path"
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

// recordWhatifTrace captures steps calls of step under the given GEMM
// kernel tier, serial and pooled. Two warm-up calls run unprofiled so the
// buffer pools and pack caches reach steady state before the recorded
// window.
func recordWhatifTrace(meta prof.Meta, step func()) (*prof.Trace, error) {
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
	return prof.Current(meta), nil
}

// recordTwinWhatifTrace captures the BenchmarkTwinStep/pooled workload
// (the numeric ResNet twin, Adam, clip 5) under the given GEMM kernel
// tier and batch size.
func recordTwinWhatifTrace(tier string, steps, batch int) (*prof.Trace, error) {
	rng := tensor.NewRNG(10)
	src := data.NewImageSource(rng, 3, 16, 16, 10, 0.3)
	net := models.NumericResNet(rng, 3, 16, 10)
	opt := optim.NewAdam(0.01)
	b := src.Batch(batch)
	return recordWhatifTrace(prof.Meta{Model: "numeric-resnet", Steps: steps, Batch: batch, KernelTier: tier},
		func() { graph.TrainClassifierStep(net, opt, b.X, b.Labels, 5) })
}

// recordMLP1024WhatifTrace captures bench/'s train_gemm step: the
// 1024-1024-1024-10 MLP at batch 256, momentum SGD, clip 5, avx2 tier —
// three 256x1024x1024 GEMM layouts a step, two of them with k = 1024.
func recordMLP1024WhatifTrace(steps int) (*prof.Trace, error) {
	const batch = 256
	rng := tensor.NewRNG(10)
	net := models.NumericServeMLP(rng, 1024, 1024, 10)
	opt := optim.NewMomentum(0.01, 0.9)
	x, labels := dist.SyntheticBatch(rng, []int{1024}, 10, batch)
	return recordWhatifTrace(prof.Meta{Model: "serve-mlp-1024", Steps: steps, Batch: batch, KernelTier: "avx2"},
		func() { graph.TrainClassifierStep(net, opt, x, labels, 5) })
}

// TestRecordWhatifGoldenTraces re-records the committed twin traces.
// Gated behind TBD_WHATIF_RECORD=1 because the captures are only
// meaningful on the benchmark machine the BENCH_*.json baselines came
// from; `make whatif-record` runs it (and the dist trace recording).
//
// The three earlier mlp1024 traces (see the constants above) are the
// "before" sides of TestWhatifGroundTruthGemmBlocking, ...VecReLU and
// ...DropDX, and convColsTrace that of ...ConvLowering; none is
// re-recorded here, nor is convVecTrace, the "after" side of
// ...ConvVector and the "before" side of ...BatchNormVector, nor
// bnVecTrace, its "after" side.
func TestRecordWhatifGoldenTraces(t *testing.T) {
	if os.Getenv("TBD_WHATIF_RECORD") == "" {
		t.Skip("set TBD_WHATIF_RECORD=1 (make whatif-record) to re-record golden traces")
	}
	if err := os.MkdirAll(whatifTraceDir, 0o755); err != nil {
		t.Fatal(err)
	}
	write := func(name string, tr *prof.Trace, err error) {
		if err != nil {
			t.Fatalf("record %s: %v", name, err)
		}
		path := filepath.Join(whatifTraceDir, name)
		if err := tr.WriteFile(path); err != nil {
			t.Fatal(err)
		}
		t.Logf("recorded %s: %d spans, wall %v", path, tr.Spans(), tr.Wall())
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
func loadGoldenTrace(t testing.TB, name string) *prof.Trace {
	t.Helper()
	tr, err := prof.ReadTraceFile(filepath.Join(whatifTraceDir, name))
	if err != nil {
		t.Fatalf("golden trace %s: %v (re-record with: make whatif-record)", name, err)
	}
	return tr
}

// replayGolden replays a committed trace under a scenario spec.
func replayGolden(t testing.TB, tr *prof.Trace, spec string) *whatif.Prediction {
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

// checkGroundTruth asserts one time prediction's error against its
// measured ground truth is within one point of pinPct, the error committed
// beside the cell, logging the cell for EXPERIMENTS.md. A change that moves
// a cell re-pins it and says why.
func checkGroundTruth(t *testing.T, label string, predictedUs, measuredUs, pinPct float64) {
	t.Helper()
	checkGroundTruthUnit(t, label, "ms", predictedUs/1e3, measuredUs/1e3, pinPct)
}

// checkGroundTruthUnit is the unit-agnostic core (time cells pass ms,
// memory cells pass MB).
func checkGroundTruthUnit(t *testing.T, label, unit string, predicted, measured, pinPct float64) {
	t.Helper()
	errPct := predErrPct(predicted, measured)
	t.Logf("%s: predicted %.3f %s, measured %.3f %s, error %.2f%%",
		label, predicted, unit, measured, unit, errPct)
	if math.Abs(errPct-pinPct) > 1 {
		t.Errorf("%s: predicted %.3f %s vs measured %.3f %s — error %.2f%% is more than a point from the pinned %.2f%%",
			label, predicted, unit, measured, unit, errPct, pinPct)
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
	checkGroundTruth(t, "ref->avx2 ("+spec+")", pred.PredictedStepUs, measured.BaselineStepUs, 11.63)
}

// TestWhatifGroundTruthSSEToAVX2 predicts the sse->avx2 tier upgrade
// from the SSE trace using the committed 256x256 tier ratio.
func TestWhatifGroundTruthSSEToAVX2(t *testing.T) {
	sse := loadGoldenTrace(t, "twin_sse.json")
	avx2 := loadGoldenTrace(t, "twin_avx2.json")
	spec := tierSpec(gemmGFsSSE, gemmGFsAVX2)
	pred := replayGolden(t, sse, spec)
	measured := replayGolden(t, avx2, "")
	checkGroundTruth(t, "sse->avx2 ("+spec+")", pred.PredictedStepUs, measured.BaselineStepUs, 16.07)
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
	checkGroundTruth(t, "ring unthrottled->1gbe (bw=1gbe)", pred.PredictedStepUs, measured.BaselineStepUs, 1.93)
}

// TestWhatifGroundTruthBatchScaling predicts doubling the batch from
// the batch-32 AVX2 trace and checks both predictions — step time and
// peak memory — against the committed batch-64 recording.
func TestWhatifGroundTruthBatchScaling(t *testing.T) {
	b32 := loadGoldenTrace(t, "twin_avx2.json")
	b64 := loadGoldenTrace(t, "twin_avx2_b64.json")
	pred := replayGolden(t, b32, "batch=64")
	measured := replayGolden(t, b64, "")
	checkGroundTruth(t, "batch 32->64 step time (batch=64)", pred.PredictedStepUs, measured.BaselineStepUs, 12.24)
	checkGroundTruthUnit(t, "batch 32->64 peak memory (batch=64)", "MB",
		float64(pred.MemAfter.PeakTotal)/(1<<20), float64(b64.Mem.PeakTotal)/(1<<20), 5.11)
}

// spanGFLOPs is the rate a trace's spans of one name reach together:
// their FLOPs ÷ their time.
func spanGFLOPs(tr *prof.Trace, name string) float64 {
	var flops, us float64
	for _, c := range tr.Ranks {
		for _, r := range c.Records {
			if r.Name == name {
				flops += r.FLOPs
				us += float64(r.Dur) / 1e3
			}
		}
	}
	return flops / us / 1e3
}

// gemmBlockingSpec is the prediction committed before the wide GEMM
// driver got its k-loop: "the k = 1024 GEMMs (forward and dX) run at the
// rate the k = 256 ones (dW, whose packed B panel already fits L2) reach
// in the same trace".
func gemmBlockingSpec(tr *prof.Trace) string {
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
	checkGroundTruth(t, "unblocked->k-blocked GEMM ("+spec+")", pred.PredictedStepUs, measured.BaselineStepUs, 10.63)
}

// vecReLUSpec is the prediction committed before ReLU went branch-free:
// "the forward GEMMs, which carry the bias + ReLU epilogue, run at the rate
// the dX GEMMs of the same trace reach" — same 256x1024x1024 shape, no
// epilogue, so the gap between the two rates is the epilogue.
func vecReLUSpec(tr *prof.Trace) string {
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
		predicted, measured.BaselineStepUs, 4.21)
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

// spanStepUs is what the spans at one path over parent edges take per
// step, summed from the trace itself: the part of the step that removing
// them would take away, before any peer moves its wait for them. glob is a
// drop= path; zero when the trace has no span there.
func spanStepUs(t testing.TB, tr *prof.Trace, glob string) float64 {
	trees, err := tr.Trees()
	if err != nil {
		t.Fatal(err)
	}
	var us, steps float64
	for _, tree := range trees {
		for i, n := range tree.Nodes {
			if n.Up < 0 && n.Name == "step" {
				steps++
			}
			if ok, _ := path.Match(glob, tree.Path(i)); ok {
				us += float64(n.Dur) / 1e3
			}
		}
	}
	return us / steps
}

// measuredDropDX is the step of the trace recorded with both changes in
// place, with host drift divided out by a span that runs the same code in
// both recordings: fc2's weight-gradient GEMM (a second write in neither).
func measuredDropDX(t testing.TB) float64 {
	const control = "step/phase.backward/fc2/gemm.dW"
	before, after := loadGoldenTrace(t, mlp1024VecReLUTrace), loadGoldenTrace(t, mlp1024TraceName)
	return replayGolden(t, after, "").BaselineStepUs * spanStepUs(t, before, control) / spanStepUs(t, after, control)
}

// TestWhatifGroundTruthDropDX holds that prediction against the recording,
// and the recording to what the change is: the dropped span is gone from
// fc1 alone.
func TestWhatifGroundTruthDropDX(t *testing.T) {
	after := loadGoldenTrace(t, mlp1024TraceName)
	for _, layer := range []string{"fc1", "fc2", "fc3"} {
		path := "step/phase.backward/" + layer + "/gemm.dX"
		if us := spanStepUs(t, after, path); (us > 0) != (layer != "fc1") {
			t.Errorf("%s: spans at %s take %.0f us a step; only fc1 should have none", mlp1024TraceName, path, us)
		}
	}
	checkGroundTruth(t, fmt.Sprintf("first-layer dX dropped (%s, first-touch -%d us by hand)", dropDXSpec, firstTouchSavingUs),
		predictDropDX(t), measuredDropDX(t), 1.20)
}

// The dist_ring workload's shape, `tbd dist -model mlp-wide -workers 2
// -batch 32 -lr 0.05 -bw 1250 -steps 50 -trace-out`: ringAllReduceTrace was
// recorded on f7c3891, where a ring rank flattened its gradients, all-reduced
// them and stepped SGD over every weight, and ringShardTrace on 1e331d5,
// where the step ran a whole reduce-scatter, an SGD step on the rank's own
// shard and a whole all-gather of the weights in turn; neither can be
// re-recorded. `make whatif-record` writes ringStreamTrace, the step as one
// round streamed in pieces.
const (
	ringAllReduceTrace = "dist_ring2_allreduce.json"
	ringShardTrace     = "dist_ring2_shard.json"
	ringStreamTrace    = "dist_ring2_stream.json"
)

// ringShardSpec is the prediction committed before the ring step changed:
// each of the two ranks runs SGD over half of the weights.
const ringShardSpec = "speedup=optim.sgd:2"

// ringCodecSavingUs is the codec half of that prediction, stated by hand
// because no scenario prices it: the per-element loops the zero-copy fp32
// frames remove from a rank's step, timed at f7c3891 over mlp-wide's
// 399 370 floats (one core, median of five): encoding l floats 481 us,
// decoding l/2 244 us and decoding-and-adding l/2 296 us (each less the
// 24 us memcpy that stays), and the half of the 172 us averaging pass that
// only the owner still runs (86 us), less the 128 us add loop that stays.
const ringCodecSavingUs = 481 + 244 + 296 + 86 - 128

// predictRingShard is the whole committed prediction for the ring step:
// the replayed SGD saving, the step's flatten copies (phase.sync's self
// time in the trace, GradVector and SetGradVector), and the codec term.
func predictRingShard(t testing.TB) float64 {
	before := loadGoldenTrace(t, ringAllReduceTrace)
	flatten := spanStepUs(t, before, "step/phase.sync") -
		spanStepUs(t, before, "step/phase.sync/comm.ring.allreduce") - spanStepUs(t, before, "step/phase.sync/optim.sgd")
	return replayGolden(t, before, ringShardSpec).PredictedStepUs - flatten - ringCodecSavingUs
}

// measuredRingStep is the ring step recorded in after, with host drift
// divided out by the forward GEMMs, which run the same code in every ring
// recording: after's step at before's host speed.
func measuredRingStep(t testing.TB, before, after string) float64 {
	const control = "step/phase.forward/*/gemm.bias_act"
	b, a := loadGoldenTrace(t, before), loadGoldenTrace(t, after)
	return replayGolden(t, a, "").BaselineStepUs * spanStepUs(t, b, control) / spanStepUs(t, a, control)
}

// measuredRingShard is the step of the trace recorded after the change.
func measuredRingShard(t testing.TB) float64 {
	return measuredRingStep(t, ringAllReduceTrace, ringShardTrace)
}

// commBytes totals a trace's comm spans and names them.
func commBytes(tr *prof.Trace) (bytes int64, names map[string]bool) {
	names = map[string]bool{}
	for _, c := range tr.Ranks {
		for _, r := range c.Records {
			if r.Cat == prof.CatComm {
				bytes += r.Bytes
				names[r.Name] = true
			}
		}
	}
	return bytes, names
}

// TestWhatifGroundTruthRingShard holds that prediction against the
// recording, and the recording to what the change is: the all-reduce span
// gave way to a reduce-scatter and an all-gather, and the bytes each rank
// moves did not change.
func TestWhatifGroundTruthRingShard(t *testing.T) {
	before, after := loadGoldenTrace(t, ringAllReduceTrace), loadGoldenTrace(t, ringShardTrace)
	bb, bn := commBytes(before)
	ab, an := commBytes(after)
	if bb != ab || !bn["comm.ring.allreduce"] || len(bn) != 1 || !an["comm.ring.reduce_scatter"] || !an["comm.ring.all_gather"] || len(an) != 2 {
		t.Errorf("comm spans %v carry %d bytes before, %v carry %d after; want one all-reduce, then a reduce-scatter and an all-gather, same bytes", bn, bb, an, ab)
	}
	checkGroundTruth(t, fmt.Sprintf("ring RS -> shard SGD -> AG (%s, flatten from the trace, codec -%d us by hand)", ringShardSpec, ringCodecSavingUs),
		predictRingShard(t), measuredRingShard(t), 2.68)
}

// ringStreamSpec is the prediction committed before the ring round was
// streamed, Daydream's remove: the shard's SGD runs on each piece of the
// Owned chunk while the rest of the chunk is still arriving, off the step's
// critical path.
const (
	ringShardSGD   = "step/phase.sync/optim.sgd"
	ringStreamSpec = "drop=" + ringShardSGD
)

// ringStreamGatherUs is the reschedule half of that prediction, stated by
// hand because no scenario moves one span under another: the all-gather
// now streams under the reduce-scatter, and only its last piece still
// follows it. Its own cost is the shard trace's fastest
// comm.ring.all_gather span, 169.6 us (a rank whose peer was already
// waiting, so no barrier wait is in it), of which 12 of the 13 pieces a
// 199 685-element chunk is cut into hide.
const ringStreamGatherUs = 170 * 12 / 13

// predictRingStream is the whole committed prediction for the ring step.
func predictRingStream(t testing.TB) float64 {
	return replayGolden(t, loadGoldenTrace(t, ringShardTrace), ringStreamSpec).PredictedStepUs - ringStreamGatherUs
}

// measuredRingStream is the step of the trace recorded after the change.
func measuredRingStream(t testing.TB) float64 {
	return measuredRingStep(t, ringShardTrace, ringStreamTrace)
}

// TestWhatifGroundTruthRingStream holds that prediction against the
// recording, and the recording to what the change is: the same two comm
// spans carry the same bytes, and the shard's SGD now runs inside the
// reduce-scatter instead of after it.
func TestWhatifGroundTruthRingStream(t *testing.T) {
	before, after := loadGoldenTrace(t, ringShardTrace), loadGoldenTrace(t, ringStreamTrace)
	bb, bn := commBytes(before)
	ab, an := commBytes(after)
	if bb != ab || !maps.Equal(bn, an) {
		t.Errorf("comm spans %v carry %d bytes before, %v carry %d after; want the same spans and bytes", bn, bb, an, ab)
	}
	if spanStepUs(t, after, ringShardSGD) != 0 || spanStepUs(t, after, "step/phase.sync/comm.ring.reduce_scatter/optim.sgd") == 0 {
		t.Errorf("%s: want optim.sgd under comm.ring.reduce_scatter, not beside it", ringStreamTrace)
	}
	checkGroundTruth(t, fmt.Sprintf("ring step streamed (%s, all-gather -%d us by hand)", ringStreamSpec, ringStreamGatherUs),
		predictRingStream(t), measuredRingStream(t), 4.07)
}

// convColsTrace is train_conv's step (the ResNet twin at batch 32, avx2
// tier, one worker) recorded by recordTwinWhatifTrace on a46c4aa, where
// every 3x3 layer lowered its batch into a [32, C·9, 256] tensor it
// stashed for the backward pass, the wide driver packed each image's slice
// of it into its B panel, and the backward pass filled a second such
// tensor with the lowered input gradient before scattering it. It cannot
// be re-recorded; `make whatif-record` writes the step as it is now into
// twin_avx2.json.
const convColsTrace = "twin_avx2_cols.json"

// convLoweringSpec is the prediction committed before each image was
// lowered straight into its GEMM's panel, at the ratios scratch prototypes
// on a46c4aa measured (32 images, 8->8 3x3 on 16x16): the lowering 0.42 ->
// 0.33 ms once it writes the panel from a zero-padded image, the scatter
// 0.80 -> 0.53 ms once each image's lowered gradient is scattered while it
// is in L2. convLoweringCeiling removes both.
const (
	convLoweringSpec    = "speedup=im2col:1.27,speedup=col2im:1.5"
	convLoweringCeiling = "speedup=im2col:1e6,speedup=col2im:1e6"
)

// convPackSavingUs is the pack half of that prediction, stated by hand
// because the pack has no span of its own (its time hides in conv2d.fwd's
// self time): packBRangeWide over one step's forward panels on a46c4aa,
// 32 images of three [72, 256] and one [27, 256] lowerings, best of 200
// runs with the source in cache. The weight gradient's transposed pack
// (750 us a step, same measurement) gives way to a lowering the
// prototypes put at the same cost, so it counts as no saving.
const convPackSavingUs = 480

// convLoweringStashBytes is what the convolutions stashed beside their
// inputs on a46c4aa: the four 3x3 layers one [32, 27, 256] and three
// [32, 72, 256] lowerings, and the 1x1 projection its input [32, 3, 256]
// a second time, as its own lowering.
const convLoweringStashBytes = 4 * 32 * 256 * (27 + 3*72 + 3)

// predictConvLowering is the whole committed prediction for the step.
func predictConvLowering(t testing.TB) float64 {
	return replayGolden(t, loadGoldenTrace(t, convColsTrace), convLoweringSpec).PredictedStepUs - convPackSavingUs
}

// measuredConvLowering is the step recorded after the change, with host
// drift divided out by the BatchNorm layers, forward and backward, which
// run the same code in both recordings: after's step at before's host
// speed.
func measuredConvLowering(t testing.TB) float64 {
	const control = "step/*/*/*/*.bn?"
	before, after := loadGoldenTrace(t, convColsTrace), loadGoldenTrace(t, "twin_avx2.json")
	return replayGolden(t, after, "").BaselineStepUs * spanStepUs(t, before, control) / spanStepUs(t, after, control)
}

// TestWhatifGroundTruthConvLowering holds that prediction against the
// recording, and the recording to what the change is: the feature maps
// a step stashes lost exactly the lowerings, and the measured step stays
// above the ceiling's.
func TestWhatifGroundTruthConvLowering(t *testing.T) {
	before, after := loadGoldenTrace(t, convColsTrace), loadGoldenTrace(t, "twin_avx2.json")
	if got, want := after.Mem.FeatureMaps, before.Mem.FeatureMaps-convLoweringStashBytes; got != want {
		t.Errorf("feature maps %d bytes after, %d before; want %d, the inputs without the lowerings", got, before.Mem.FeatureMaps, want)
	}
	measured := measuredConvLowering(t)
	if ceiling := replayGolden(t, before, convLoweringCeiling).PredictedStepUs; measured < ceiling {
		t.Errorf("measured step %.0f us is below the %s ceiling, %.0f us", measured, convLoweringCeiling, ceiling)
	}
	checkGroundTruth(t, fmt.Sprintf("per-image lowering into the panel (%s, forward pack -%d us by hand)", convLoweringSpec, convPackSavingUs),
		predictConvLowering(t), measured, 8.49)
}

// convVecTrace is train_conv's step recorded by recordTwinWhatifTrace
// ("avx2", 10, 32) once the convolution's data movement ran on its AVX2
// bodies: a 32-byte move per tap for the forward lowering, the weight
// gradient's transposed panel written from the image by 8x8 transposes,
// and one block add per tap for the scatter. twin_avx2.json is the step
// before it. `make whatif-record` does not write this file.
const convVecTrace = "twin_avx2_vecconv.json"

// convVecSpec is the prediction committed before those bodies were
// called: the im2col and col2im ratios BenchmarkConvStages measured
// against prototypes (lower + relower 35.73 -> lower + wpanel 9.53 us an
// image; scatter 25.36 -> 5.58 us).
const convVecSpec = "speedup=im2col:3.75,speedup=col2im:4.54"

// convVecPackSavingUs is the weight gradient's transposed-B pack, which
// the panel replaces and no span prices: the same benchmark put it at
// 0.4755 of the lowering stages, and twin_avx2.json spends 2 582 us a step
// in im2col.
const convVecPackSavingUs = 1228

// predictConvVector is the whole committed prediction for the step.
func predictConvVector(t testing.TB) float64 {
	return replayGolden(t, loadGoldenTrace(t, "twin_avx2.json"), convVecSpec).PredictedStepUs - convVecPackSavingUs
}

// TestWhatifGroundTruthConvVector holds that prediction against the
// recording, drift divided out by the BatchNorm layers as in
// measuredConvLowering, and the recording to what the change is: the
// feature maps did not move, and the step stays above the ceiling (both
// spans at 1e6, the pack gone).
func TestWhatifGroundTruthConvVector(t *testing.T) {
	const control = "step/*/*/*/*.bn?"
	before, after := loadGoldenTrace(t, "twin_avx2.json"), loadGoldenTrace(t, convVecTrace)
	if got, want := after.Mem.FeatureMaps, before.Mem.FeatureMaps; got != want {
		t.Errorf("feature maps %d bytes after, %d before; want no change", got, want)
	}
	measured := replayGolden(t, after, "").BaselineStepUs * spanStepUs(t, before, control) / spanStepUs(t, after, control)
	if ceiling := replayGolden(t, before, convLoweringCeiling).PredictedStepUs - convVecPackSavingUs; measured < ceiling {
		t.Errorf("measured step %.0f us is below the %s ceiling less the pack, %.0f us", measured, convLoweringCeiling, ceiling)
	}
	checkGroundTruth(t, fmt.Sprintf("vector data movement (%s, weight pack -%d us by hand)", convVecSpec, convVecPackSavingUs),
		predictConvVector(t), measured, 8.74)
}

// bnVecTrace is train_conv's step recorded by recordTwinWhatifTrace
// ("avx2", 10, 32) once BatchNorm's training passes ran on their AVX2
// bodies: channel sums with one channel per float64 lane, and 8-wide
// normalize and gradient passes. convVecTrace is the step before it.
// `make whatif-record` does not write this file.
const bnVecTrace = "twin_avx2_vecbn.json"

// bnVecSpec is the prediction committed before the layer called those
// bodies: the forward + backward ratio of the layer's loops to the
// bodies at [32, 8, 16, 16], measured in one process (EXPERIMENTS.md).
const bnVecSpec = "speedup=*.bn?:3.2"

// bnVecControl is every convolution span under a conv layer: the same
// code in both recordings, and BatchNorm is what changed.
const bnVecControl = "step/*/*/*/*/conv2d.*"

// TestWhatifGroundTruthBatchNormVector holds that prediction against the
// recording, host drift divided out by the convolution spans, and the
// recording to what the change is: the feature maps did not move. The
// step is not held above the speedup=*.bn?:1e6 ceiling, as ConvVector's
// is: the first recorded step of convVecTrace stalls 10.3 ms in block1's
// projection-conv backward (0.35 ms in the other nine), about 1 ms of its
// 10.02 ms step that every replay of it keeps and bnVecTrace lacks, so
// the measured step reads 7.80 ms against a 7.83 ms ceiling. The
// BatchNorm spans' own ratio is logged beside the cell.
func TestWhatifGroundTruthBatchNormVector(t *testing.T) {
	const bn = "step/*/*/*/*.bn?"
	before, after := loadGoldenTrace(t, convVecTrace), loadGoldenTrace(t, bnVecTrace)
	if got, want := after.Mem.FeatureMaps, before.Mem.FeatureMaps; got != want {
		t.Errorf("feature maps %d bytes after, %d before; want no change", got, want)
	}
	drift := spanStepUs(t, before, bnVecControl) / spanStepUs(t, after, bnVecControl)
	t.Logf("BatchNorm spans %.3f -> %.3f ms a step at the before side's host speed: %.2fx (predicted %s)",
		spanStepUs(t, before, bn)/1e3, spanStepUs(t, after, bn)*drift/1e3, spanStepUs(t, before, bn)/(spanStepUs(t, after, bn)*drift), bnVecSpec)
	checkGroundTruth(t, fmt.Sprintf("vector BatchNorm (%s)", bnVecSpec),
		replayGolden(t, before, bnVecSpec).PredictedStepUs, replayGolden(t, after, "").BaselineStepUs*drift, 9.20)
}

// TestWhatifGroundTruthPSBandwidth is the strongest bandwidth cell: the
// synchronous parameter server pushes every rank's full gradient vector
// through one shared server NIC, so the 1 GbE run is wire-dominated and
// the 10 GbE prediction exercises the cluster schedule end to end,
// including the server's intake on the host's CPUs, which the 1 GbE link
// hides and 10 GbE exposes. Both traces are the median of eleven
// recordings by total comm time (EXPERIMENTS.md lists them). The cell is
// on the comm spans themselves; the step-level reading is logged beside
// it.
func TestWhatifGroundTruthPSBandwidth(t *testing.T) {
	slow := loadGoldenTrace(t, "dist_ps_1gbe.json")
	fast := loadGoldenTrace(t, "dist_ps_10gbe.json")
	pred := replayGolden(t, slow, "bw=10gbe")
	measured := replayGolden(t, fast, "")
	predComm := commDelta(t, pred)
	measComm := commDelta(t, measured)
	checkGroundTruth(t, "ps-sync 1gbe->10gbe roundtrip time (bw=10gbe)",
		predComm.PredictedUs, measComm.BaselineUs, 1.11)
	t.Logf("ps-sync 1gbe->10gbe step time (bw=10gbe): predicted %.3f ms, measured %.3f ms, error %.2f%%",
		pred.PredictedStepUs/1e3, measured.BaselineStepUs/1e3, predErrPct(pred.PredictedStepUs, measured.BaselineStepUs))
}

// TestWhatifKernelModelPricesSpansWithChildren: every conv2d span but the
// stem has im2col/col2im children, and their FLOPs are the conv's own. An
// analytical model at 1e6 GFLOP/s prices that work at next to nothing, so
// it must predict a step no slower than a 1e6× speedup of the same spans,
// which keeps their memory floor.
func TestWhatifKernelModelPricesSpansWithChildren(t *testing.T) {
	tr := loadGoldenTrace(t, "twin_avx2_vecconv.json")
	model := replayGolden(t, tr, "kernelmodel=conv2d*:1e6").PredictedStepUs
	speedup := replayGolden(t, tr, "speedup=conv2d*:1e6").PredictedStepUs
	t.Logf("kernelmodel=conv2d*:1e6 %.3f ms, speedup=conv2d*:1e6 %.3f ms", model/1e3, speedup/1e3)
	if model > speedup {
		t.Fatalf("kernelmodel=conv2d*:1e6 predicts %.3f ms, slower than speedup=conv2d*:1e6's %.3f ms", model/1e3, speedup/1e3)
	}
}

// TestWhatifGoldenTracesReplayToIdentity replays every committed golden
// trace under the empty scenario: the step, the wall and every phase and
// kernel row come back bit for bit, the cluster schedule included.
func TestWhatifGoldenTracesReplayToIdentity(t *testing.T) {
	names, err := filepath.Glob(filepath.Join(whatifTraceDir, "*.json"))
	if err != nil || len(names) == 0 {
		t.Fatalf("no golden traces under %s: %v", whatifTraceDir, err)
	}
	for _, name := range names {
		p := replayGolden(t, loadGoldenTrace(t, filepath.Base(name)), "")
		if p.PredictedStepUs != p.BaselineStepUs || p.PredictedWallUs != p.BaselineWallUs {
			t.Errorf("%s: step %v -> %v us, wall %v -> %v us", name, p.BaselineStepUs, p.PredictedStepUs, p.BaselineWallUs, p.PredictedWallUs)
		}
		for _, d := range append(p.Phases, p.Kernels...) {
			if d.PredictedUs != d.BaselineUs {
				t.Errorf("%s: %s %v -> %v us", name, d.Name, d.BaselineUs, d.PredictedUs)
			}
		}
	}
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
