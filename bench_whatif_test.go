package tbd

// Benchmarks for the what-if predictor's machinery: BenchmarkWhatifReplay
// times replay on the largest committed cluster trace, and
// BenchmarkWhatifRecordTwin the full training step with dependence-graph
// recording enabled (compare samples/s against BenchmarkTwinStep/pooled
// for the recording-overhead claim in EXPERIMENTS.md). The prediction
// cells themselves are the TestWhatifGroundTruth* tests, each pinned to
// the error committed beside it.

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

// BenchmarkWhatifReplay times the replay engine alone (graph build,
// transforms, cluster schedule, re-sum, aggregation) on the largest
// committed 4-rank parameter-server trace, with the file parsed once
// outside the loop.
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
