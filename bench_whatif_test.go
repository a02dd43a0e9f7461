package tbd

// Benchmarks for the what-if predictor. Two kinds of number come out:
//
//   - BenchmarkWhatifGroundTruth/* replay the committed golden traces
//     under the validated scenarios and report the prediction error vs
//     ground truth as pred-err-pct. Replay is deterministic, so the
//     metric is exactly reproducible; `make bench-gate` fails the whatif
//     suite when any cell exceeds the documented error bound (the gate
//     is on prediction quality, not replay wall time).
//   - BenchmarkWhatifReplay and BenchmarkWhatifRecordTwin time the
//     machinery itself: replay cost on the largest committed trace, and
//     the full training step with dependence-graph recording enabled
//     (compare samples/s against BenchmarkTwinStep/pooled for the
//     recording-overhead claim in EXPERIMENTS.md).

import (
	"testing"

	"tbd/internal/data"
	"tbd/internal/graph"
	"tbd/internal/models"
	"tbd/internal/optim"
	"tbd/internal/prof"
	"tbd/internal/tensor"
	"tbd/internal/whatif"
)

// whatifGroundTruthCells mirrors the TestWhatifGroundTruth* checks, one
// row per validated (trace, scenario, measured answer) cell.
var whatifGroundTruthCells = []struct {
	name string
	run  func(tb testing.TB) (predicted, measured float64)
}{
	{"ref-to-avx2", func(tb testing.TB) (float64, float64) {
		pred := replayGolden(tb, loadGoldenTrace(tb, "twin_ref.json"), tierSpec(gemmGFsRef, gemmGFsAVX2))
		meas := replayGolden(tb, loadGoldenTrace(tb, "twin_avx2.json"), "")
		return pred.PredictedStepUs, meas.BaselineStepUs
	}},
	{"sse-to-avx2", func(tb testing.TB) (float64, float64) {
		pred := replayGolden(tb, loadGoldenTrace(tb, "twin_sse.json"), tierSpec(gemmGFsSSE, gemmGFsAVX2))
		meas := replayGolden(tb, loadGoldenTrace(tb, "twin_avx2.json"), "")
		return pred.PredictedStepUs, meas.BaselineStepUs
	}},
	{"ring-1gbe", func(tb testing.TB) (float64, float64) {
		pred := replayGolden(tb, loadGoldenTrace(tb, "dist_ring_nolimit.json"), "bw=1gbe")
		meas := replayGolden(tb, loadGoldenTrace(tb, "dist_ring_1gbe.json"), "")
		return pred.PredictedStepUs, meas.BaselineStepUs
	}},
	{"batch-64-step", func(tb testing.TB) (float64, float64) {
		pred := replayGolden(tb, loadGoldenTrace(tb, "twin_avx2.json"), "batch=64")
		meas := replayGolden(tb, loadGoldenTrace(tb, "twin_avx2_b64.json"), "")
		return pred.PredictedStepUs, meas.BaselineStepUs
	}},
	{"batch-64-mem", func(tb testing.TB) (float64, float64) {
		pred := replayGolden(tb, loadGoldenTrace(tb, "twin_avx2.json"), "batch=64")
		b64 := loadGoldenTrace(tb, "twin_avx2_b64.json")
		return float64(pred.MemAfter.PeakTotal), float64(b64.Mem.PeakTotal)
	}},
	{"gemm-blocking", func(tb testing.TB) (float64, float64) {
		unblocked := loadGoldenTrace(tb, mlp1024UnblockedTrace)
		pred := replayGolden(tb, unblocked, gemmBlockingSpec(unblocked))
		meas := replayGolden(tb, loadGoldenTrace(tb, mlp1024BlockedTrace), "")
		return pred.PredictedStepUs, meas.BaselineStepUs
	}},
	{"vec-relu", func(tb testing.TB) (float64, float64) {
		pred, _ := predictVecReLU(tb)
		meas := replayGolden(tb, loadGoldenTrace(tb, mlp1024VecReLUTrace), "")
		return pred, meas.BaselineStepUs
	}},
	{"drop-dx", func(tb testing.TB) (float64, float64) {
		return predictDropDX(tb), measuredDropDX(tb)
	}},
	{"ring-shard", func(tb testing.TB) (float64, float64) {
		return predictRingShard(tb), measuredRingShard(tb)
	}},
	{"ring-stream", func(tb testing.TB) (float64, float64) {
		return predictRingStream(tb), measuredRingStream(tb)
	}},
	{"conv-lowering", func(tb testing.TB) (float64, float64) {
		return predictConvLowering(tb), measuredConvLowering(tb)
	}},
	{"ps-10gbe", func(tb testing.TB) (float64, float64) {
		pred := replayGolden(tb, loadGoldenTrace(tb, "dist_ps_1gbe.json"), "bw=10gbe")
		meas := replayGolden(tb, loadGoldenTrace(tb, "dist_ps_10gbe.json"), "")
		return commDelta(tb, pred).PredictedUs, commDelta(tb, meas).BaselineUs
	}},
}

// BenchmarkWhatifGroundTruth reports each validated cell's prediction
// error (pred-err-pct); ns/op covers trace load + parse + replay.
func BenchmarkWhatifGroundTruth(b *testing.B) {
	for _, cell := range whatifGroundTruthCells {
		b.Run(cell.name, func(b *testing.B) {
			var pred, meas float64
			for i := 0; i < b.N; i++ {
				pred, meas = cell.run(b)
			}
			b.ReportMetric(predErrPct(pred, meas), "pred-err-pct")
		})
	}
}

// BenchmarkWhatifReplay times the replay engine alone (graph build,
// transforms, re-sum, aggregation) on the largest committed cluster
// trace, with the file parsed once outside the loop.
func BenchmarkWhatifReplay(b *testing.B) {
	tr := loadGoldenTrace(b, "dist_ps_1gbe.json")
	sc, err := whatif.ParseScenario("speedup=gemm*:2,bw=10gbe,compress=fp16,batch=32")
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := whatif.Replay(tr, sc); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(tr.Spans())*float64(b.N)/b.Elapsed().Seconds()/1e6, "Melem/s")
}

// BenchmarkWhatifRecordTwin is BenchmarkTwinStep/pooled with what-if
// recording live: same model, optimizer, batch, and engine config, each
// iteration one full training step captured into the dependence graph.
// The samples/s delta vs the unprofiled BenchmarkTwinStep/pooled cell is
// the measured recording overhead (claimed <= 5% in EXPERIMENTS.md).
func BenchmarkWhatifRecordTwin(b *testing.B) {
	prevPool := tensor.SetPooling(true)
	tensor.SetParallelism(1)
	defer func() {
		tensor.SetPooling(prevPool)
		tensor.SetParallelism(1)
	}()
	rng := tensor.NewRNG(10)
	src := data.NewImageSource(rng, 3, 16, 16, 10, 0.3)
	net := models.NumericResNet(rng, 3, 16, 10)
	opt := optim.NewAdam(0.01)
	batch := src.Batch(32)
	// One recorded step warms the pools and counts the spans a step emits;
	// the timeline is sized from that count, so the capture drops nothing
	// and stays replayable.
	prof.Enable()
	graph.TrainClassifierStep(net, opt, batch.X, batch.Labels, 5)
	prof.Disable()
	perStep := prof.Current(prof.Meta{}).Spans()
	prof.EnableWithMaxRecords(perStep*(b.N+1) + 1024)
	defer func() {
		prof.Disable()
		prof.SetMaxRecords(0)
	}()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		graph.TrainClassifierStep(net, opt, batch.X, batch.Labels, 5)
	}
	b.StopTimer()
	prof.Disable()
	tr := prof.Current(prof.Meta{Model: "numeric-resnet", Steps: b.N, Batch: 32, Parallel: 1})
	if tr.Spans() == 0 {
		b.Fatal("recording produced no spans")
	}
	if tr.Dropped > 0 {
		b.Fatalf("recording dropped %d spans past a cap sized for %d a step", tr.Dropped, perStep)
	}
	b.ReportMetric(32*float64(b.N)/b.Elapsed().Seconds(), "samples/s")
}
