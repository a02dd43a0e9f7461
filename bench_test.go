package tbd

// The benchmark harness: one testing.B benchmark per table and figure of
// the paper (regenerating the artifact each iteration and reporting its
// headline metric), plus ablation benchmarks for the design choices
// DESIGN.md calls out (RNN sync points, aggregation strategy, interconnect
// choice) and micro-benchmarks of the numeric engine.
//
// Run with: go test -bench=. -benchmem

import (
	"fmt"
	"io"
	"runtime"
	"sync"
	"testing"
	"time"

	"tbd/internal/data"
	"tbd/internal/device"
	"tbd/internal/graph"
	"tbd/internal/kernels"
	"tbd/internal/layers"
	"tbd/internal/metrics"
	"tbd/internal/models"
	"tbd/internal/optim"
	"tbd/internal/prof"
	"tbd/internal/serve"
	"tbd/internal/sim"
	"tbd/internal/tensor"
)

// benchExperiment regenerates one paper artifact per iteration.
func benchExperiment(b *testing.B, id string) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		if err := RunExperiment(id, io.Discard, RunOptions{Fig2Steps: 40}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable1(b *testing.B) { benchExperiment(b, "table1") }
func BenchmarkTable2(b *testing.B) { benchExperiment(b, "table2") }
func BenchmarkTable3(b *testing.B) { benchExperiment(b, "table3") }
func BenchmarkTable4(b *testing.B) { benchExperiment(b, "table4") }
func BenchmarkTable5(b *testing.B) { benchExperiment(b, "table5") }
func BenchmarkTable6(b *testing.B) { benchExperiment(b, "table6") }
func BenchmarkFig2(b *testing.B)   { benchExperiment(b, "fig2") }
func BenchmarkFig4(b *testing.B)   { benchExperiment(b, "fig4") }
func BenchmarkFig5(b *testing.B)   { benchExperiment(b, "fig5") }
func BenchmarkFig6(b *testing.B)   { benchExperiment(b, "fig6") }
func BenchmarkFig7(b *testing.B)   { benchExperiment(b, "fig7") }
func BenchmarkFig8(b *testing.B)   { benchExperiment(b, "fig8") }
func BenchmarkFig9(b *testing.B)   { benchExperiment(b, "fig9") }
func BenchmarkFig10(b *testing.B)  { benchExperiment(b, "fig10") }

// BenchmarkObservations checks all 13 findings per iteration.
func BenchmarkObservations(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, o := range CheckObservations() {
			if !o.Holds {
				b.Fatalf("observation %d failed", o.ID)
			}
		}
	}
}

// --- headline metric benchmarks: simulated throughput per model ---

func benchSimThroughput(b *testing.B, model, fw string, batch int) {
	b.Helper()
	var thr float64
	for i := 0; i < b.N; i++ {
		p, err := ProfileTraining(model, fw, "", batch)
		if err != nil {
			b.Fatal(err)
		}
		thr = p.Throughput
	}
	b.ReportMetric(thr, "samples/s(simulated)")
}

func BenchmarkSimResNet50(b *testing.B)    { benchSimThroughput(b, "ResNet-50", "MXNet", 32) }
func BenchmarkSimInceptionV3(b *testing.B) { benchSimThroughput(b, "Inception-v3", "MXNet", 32) }
func BenchmarkSimNMT(b *testing.B)         { benchSimThroughput(b, "Seq2Seq", "TensorFlow", 128) }
func BenchmarkSimSockeye(b *testing.B)     { benchSimThroughput(b, "Seq2Seq", "MXNet", 64) }
func BenchmarkSimTransformer(b *testing.B) { benchSimThroughput(b, "Transformer", "TensorFlow", 2048) }
func BenchmarkSimFasterRCNN(b *testing.B)  { benchSimThroughput(b, "Faster R-CNN", "TensorFlow", 1) }
func BenchmarkSimDeepSpeech2(b *testing.B) { benchSimThroughput(b, "Deep Speech 2", "MXNet", 4) }
func BenchmarkSimWGAN(b *testing.B)        { benchSimThroughput(b, "WGAN", "TensorFlow", 64) }
func BenchmarkSimA3C(b *testing.B)         { benchSimThroughput(b, "A3C", "MXNet", 128) }

// --- ablation benchmarks ---

// BenchmarkAblationRNNSyncPoints quantifies the cost of the host sync
// points in unfused LSTM loops (the mechanism behind Observation 5): the
// same kernel stream with syncs stripped.
func BenchmarkAblationRNNSyncPoints(b *testing.B) {
	m, err := models.Lookup("Seq2Seq")
	if err != nil {
		b.Fatal(err)
	}
	cfg := sim.Config{GPU: device.QuadroP4000, LaunchOverheadSec: 8e-6, SyncOverheadSec: 150e-6, IterOverheadSec: 5e-3}
	stream := kernels.IterationKernels(m.Ops(), 64, kernels.StyleTF)
	stripped := append([]kernels.Kernel(nil), stream...)
	for i := range stripped {
		stripped[i].Sync = false
	}
	var synced, unsynced sim.Result
	for i := 0; i < b.N; i++ {
		synced = sim.Replay(stream, 64, cfg)
		unsynced = sim.Replay(stripped, 64, cfg)
	}
	b.ReportMetric(synced.Throughput, "synced-samples/s")
	b.ReportMetric(unsynced.Throughput, "fused-samples/s")
	b.ReportMetric(unsynced.Throughput/synced.Throughput, "fusion-speedup")
}

// BenchmarkAblationAggregation compares parameter-server and ring
// all-reduce gradient aggregation at 4 GPUs.
func BenchmarkAblationAggregation(b *testing.B) {
	m, _ := models.Lookup("ResNet-50")
	cfg := sim.Config{GPU: device.QuadroP4000, LaunchOverheadSec: 6e-6, SyncOverheadSec: 180e-6, IterOverheadSec: 3e-3}
	ps := sim.Cluster{Name: "ps", Machines: 1, GPUsPerMachine: 4, IntraLink: device.PCIe3, Strategy: sim.ParameterServer, OverlapFraction: 0.5}
	ring := ps
	ring.Strategy = sim.RingAllReduce
	var rp, rr sim.ScaleResult
	for i := 0; i < b.N; i++ {
		rp = sim.Scale(m.Ops(), 16, kernels.StyleMXNet, cfg, ps)
		rr = sim.Scale(m.Ops(), 16, kernels.StyleMXNet, cfg, ring)
	}
	b.ReportMetric(rp.Throughput, "ps-samples/s")
	b.ReportMetric(rr.Throughput, "ring-samples/s")
}

// BenchmarkAblationInterconnect isolates the link technology at fixed
// topology (2 machines).
func BenchmarkAblationInterconnect(b *testing.B) {
	m, _ := models.Lookup("ResNet-50")
	cfg := sim.Config{GPU: device.QuadroP4000, LaunchOverheadSec: 6e-6, SyncOverheadSec: 180e-6, IterOverheadSec: 3e-3}
	mk := func(link *device.Interconnect) sim.Cluster {
		return sim.Cluster{Name: link.Name, Machines: 2, GPUsPerMachine: 1, IntraLink: device.PCIe3, InterLink: link, Strategy: sim.ParameterServer, OverlapFraction: 0.5}
	}
	var eth, ib sim.ScaleResult
	for i := 0; i < b.N; i++ {
		eth = sim.Scale(m.Ops(), 16, kernels.StyleMXNet, cfg, mk(device.Ethernet))
		ib = sim.Scale(m.Ops(), 16, kernels.StyleMXNet, cfg, mk(device.InfiniBand))
	}
	b.ReportMetric(eth.Throughput, "ethernet-samples/s")
	b.ReportMetric(ib.Throughput, "infiniband-samples/s")
}

// BenchmarkAblationBatchNormShare measures the share of simulated GPU
// time in batch-norm kernels for ResNet-50 (the Table 5/6 optimization
// target).
func BenchmarkAblationBatchNormShare(b *testing.B) {
	m, _ := models.Lookup("ResNet-50")
	cfg := sim.Config{GPU: device.QuadroP4000, LaunchOverheadSec: 8e-6, SyncOverheadSec: 150e-6, IterOverheadSec: 5e-3}
	var share float64
	for i := 0; i < b.N; i++ {
		r := sim.Simulate(m.Ops(), 32, kernels.StyleTF, cfg)
		share = 0
		for _, st := range r.PerKernel {
			if st.Class == kernels.BatchNorm {
				share += st.DurationShare
			}
		}
	}
	b.ReportMetric(100*share, "bn-time-%")
}

// BenchmarkAblationWorkspaceBudget reports the throughput of ResNet-50
// under a tight vs generous convolution-workspace budget — the paper's
// Observation 12 recommendation quantified.
func BenchmarkAblationWorkspaceBudget(b *testing.B) {
	var tight, generous float64
	for i := 0; i < b.N; i++ {
		rows, err := WorkspaceTradeoff("ResNet-50", "MXNet", 32, []int64{8 << 20, 1 << 30})
		if err != nil {
			b.Fatal(err)
		}
		tight, generous = rows[0].Throughput, rows[1].Throughput
	}
	b.ReportMetric(tight, "tight-samples/s")
	b.ReportMetric(generous, "generous-samples/s")
	b.ReportMetric(generous/tight, "workspace-speedup")
}

// --- numeric engine micro-benchmarks ---

func BenchmarkTensorMatMul128(b *testing.B) {
	rng := tensor.NewRNG(1)
	x := tensor.RandNormal(rng, 0, 1, 128, 128)
	y := tensor.RandNormal(rng, 0, 1, 128, 128)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tensor.MatMul(x, y)
	}
	b.SetBytes(128 * 128 * 4 * 3)
}

func BenchmarkConv2DForward(b *testing.B) {
	rng := tensor.NewRNG(2)
	x := tensor.RandNormal(rng, 0, 1, 4, 8, 16, 16)
	w := tensor.RandNormal(rng, 0, 0.1, 16, 8, 3, 3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tensor.Conv2D(x, w, 1, 1)
	}
}

func BenchmarkLSTMForwardBackward(b *testing.B) {
	rng := tensor.NewRNG(3)
	l := layers.NewLSTM("lstm", 32, 64, rng)
	x := tensor.RandNormal(rng, 0, 1, 8, 16, 32)
	gy := tensor.RandNormal(rng, 0, 1, 8, 16, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.Forward(x, true)
		l.Backward(gy)
	}
}

func BenchmarkAttentionForwardBackward(b *testing.B) {
	rng := tensor.NewRNG(4)
	l := layers.NewMultiHeadAttention("mha", 64, 4, false, rng)
	x := tensor.RandNormal(rng, 0, 1, 8, 16, 64)
	gy := tensor.RandNormal(rng, 0, 1, 8, 16, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.Forward(x, true)
		l.Backward(gy)
	}
}

func BenchmarkTrainStepCNN(b *testing.B) {
	rng := tensor.NewRNG(5)
	src := data.NewImageSource(rng, 1, 8, 8, 4, 0.3)
	net := models.NumericResNet(rng, 1, 8, 4)
	opt := optim.NewAdam(0.01)
	batch := src.Batch(16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		graph.TrainClassifierStep(net, opt, batch.X, batch.Labels, 5)
	}
	b.ReportMetric(16*float64(b.N)/b.Elapsed().Seconds(), "samples/s(real)")
}

// BenchmarkKernelEmission measures the analytic layer: expanding
// ResNet-50 into its full per-iteration kernel stream.
func BenchmarkKernelEmission(b *testing.B) {
	m, _ := models.Lookup("ResNet-50")
	ops := m.Ops()
	b.ResetTimer()
	var n int
	for i := 0; i < b.N; i++ {
		n = len(kernels.IterationKernels(ops, 32, kernels.StyleTF))
	}
	b.ReportMetric(float64(n), "kernels/iter")
}

// BenchmarkWarmupDetection measures the §3.4.2 stable-phase detector.
func BenchmarkWarmupDetection(b *testing.B) {
	trace := sim.WarmupTrace(0.1, 1000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := metrics.NewMeter(32)
		for _, d := range trace {
			m.Record(d)
		}
		if m.StableStart(0.1) == 0 {
			b.Fatal("warm-up not detected")
		}
	}
}

// --- blocked-GEMM / pooled-training benchmarks (BENCH_numeric.json) ---

func benchGEMM(b *testing.B, f func(a, c *tensor.Tensor) *tensor.Tensor) {
	b.Helper()
	rng := tensor.NewRNG(8)
	a := tensor.RandNormal(rng, 0, 1, 256, 256)
	c := tensor.RandNormal(rng, 0, 1, 256, 256)
	b.SetBytes(3 * 256 * 256 * 4)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f(a, c).Release()
	}
	b.ReportMetric(2*256*256*256*float64(b.N)/1e9/b.Elapsed().Seconds(), "GFLOP/s")
}

func BenchmarkGEMM256(b *testing.B)       { benchGEMM(b, tensor.MatMul) }
func BenchmarkGEMMTransA256(b *testing.B) { benchGEMM(b, tensor.MatMulTransA) }
func BenchmarkGEMMTransB256(b *testing.B) { benchGEMM(b, tensor.MatMulTransB) }

// BenchmarkGEMMTier sweeps every runnable GEMM micro-kernel tier over
// square sizes, reporting per-tier GFLOP/s — the kernel-tier dispatch
// acceptance numbers (ref is the bit-exact scalar baseline, sse the
// 4x4 asm kernels, avx2 the 8x8 FMA kernels).
func BenchmarkGEMMTier(b *testing.B) {
	orig := tensor.GemmKernelTier()
	defer tensor.SetGemmKernelTier(orig)
	for _, tier := range tensor.GemmKernelTiers() {
		for _, n := range []int{256, 512, 1024} {
			b.Run(fmt.Sprintf("%s/%d", tier, n), func(b *testing.B) {
				if _, err := tensor.SetGemmKernelTier(tier); err != nil {
					b.Fatal(err)
				}
				rng := tensor.NewRNG(8)
				a := tensor.RandNormal(rng, 0, 1, n, n)
				c := tensor.RandNormal(rng, 0, 1, n, n)
				fn := float64(n)
				b.SetBytes(3 * int64(n) * int64(n) * 4)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					tensor.MatMul(a, c).Release()
				}
				b.ReportMetric(2*fn*fn*fn*float64(b.N)/1e9/b.Elapsed().Seconds(), "GFLOP/s")
			})
		}
	}
}

// BenchmarkGEMMHalf measures the fp16-storage / fp32-accumulate GEMM on
// the active (widest) tier: the weight matrix lives as uint16 halves and
// the B panels pack at half the workspace bytes.
func BenchmarkGEMMHalf(b *testing.B) {
	for _, n := range []int{256, 512, 1024} {
		b.Run(fmt.Sprint(n), func(b *testing.B) {
			rng := tensor.NewRNG(8)
			a := tensor.RandNormal(rng, 0, 1, n, n)
			wh := tensor.NewHalfMatrix(tensor.RandNormal(rng, 0, 1, n, n))
			fn := float64(n)
			b.SetBytes(int64(n) * int64(n) * (4 + 2 + 4))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tensor.MatMulHalfBiasAct(a, wh, nil, tensor.ActNone).Release()
			}
			b.ReportMetric(2*fn*fn*fn*float64(b.N)/1e9/b.Elapsed().Seconds(), "GFLOP/s")
		})
	}
}

func BenchmarkConvFwdBwd(b *testing.B) {
	rng := tensor.NewRNG(9)
	x := tensor.RandNormal(rng, 0, 1, 8, 8, 14, 14)
	w := tensor.RandNormal(rng, 0, 0.1, 16, 8, 3, 3)
	oh := tensor.ConvOut(14, 3, 1, 1)
	gy := tensor.RandNormal(rng, 0, 1, 8, 16, oh, oh)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		y := tensor.Conv2D(x, w, 1, 1)
		gx, gw := tensor.Conv2DBackward(x, w, gy, 1, 1)
		y.Release()
		gx.Release()
		gw.Release()
	}
}

// BenchmarkDenseFusedFwdBwd measures a Dense+ReLU forward/backward with the
// activation fused into the GEMM epilogue (vs. the standalone-layer
// composition it replaced bit-for-bit).
func BenchmarkDenseFusedFwdBwd(b *testing.B) {
	rng := tensor.NewRNG(12)
	l := layers.NewDenseAct("fc", 256, 256, tensor.ActReLU, rng)
	x := tensor.RandNormal(rng, 0, 1, 64, 256)
	gy := tensor.RandNormal(rng, 0, 1, 64, 256)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.Forward(x, true)
		l.Backward(gy)
	}
}

// BenchmarkOptimStep measures the single-pass optimizer kernels over a
// realistic parameter-buffer population.
func BenchmarkOptimStep(b *testing.B) {
	rng := tensor.NewRNG(13)
	mkParams := func() []*layers.Param {
		var ps []*layers.Param
		for i, n := range []int{256 * 256, 64 * 256, 4096, 256, 31} {
			ps = append(ps, layers.NewParam("p", tensor.RandNormal(rng, 0, 0.1, n)))
			copy(ps[i].Grad.Data(), tensor.RandNormal(rng, 0, 0.01, n).Data())
		}
		return ps
	}
	for _, tc := range []struct {
		name string
		opt  optim.Optimizer
	}{
		{"sgd", optim.NewSGD(0.01)},
		{"momentum", optim.NewMomentum(0.01, 0.9)},
		{"adam", optim.NewAdam(0.01)},
		{"rmsprop", optim.NewRMSProp(0.01)},
	} {
		b.Run(tc.name, func(b *testing.B) {
			params := mkParams()
			tc.opt.Step(params) // allocate lazy state outside the timer
			var elems int64
			for _, p := range params {
				elems += int64(p.Value.Numel())
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tc.opt.Step(params)
			}
			b.ReportMetric(float64(elems)*float64(b.N)/1e6/b.Elapsed().Seconds(), "Melem/s")
		})
	}
}

// --- serving benchmarks (BENCH_serve.json) ---

// The Serve* cells are the one-replica fleet — many single-sample requests
// racing into one admission queue, one runner batching them down onto the
// network: the serving daemon's steady state at -replicas 1.

// BenchmarkServeUnbatched is the baseline: every request is its own
// forward pass (batch cap 1) under the same 64-client closed-loop load
// the batched configurations see.
func BenchmarkServeUnbatched(b *testing.B) { benchFleetConfig(b, 1, 1, 64) }

// BenchmarkServeBatched sweeps the dynamic batch cap at fixed offered
// load. The cap-64 row is required to sustain >= 3x the unbatched
// baseline (see ISSUE 3 / EXPERIMENTS.md).
func BenchmarkServeBatched(b *testing.B) {
	for _, cap := range []int{1, 4, 16, 64} {
		b.Run(fmt.Sprintf("cap%d", cap), func(b *testing.B) {
			benchFleetConfig(b, 1, cap, 64)
		})
	}
}

// benchFleetConfig drives a Fleet with a fixed closed-loop client
// population and reports sustained request throughput and mean batch
// occupancy. The b.N requests are split across the clients.
func benchFleetConfig(b *testing.B, replicas, maxBatch, clients int) {
	b.Helper()
	factory := func() (*serve.Session, error) {
		net, shape, err := models.ServeTwin("mlp", tensor.NewRNG(42))
		if err != nil {
			return nil, err
		}
		return serve.NewSession(net, shape...), nil
	}
	fleet, err := serve.NewFleet(factory, serve.FleetConfig{
		Replicas:   replicas,
		MaxBatch:   maxBatch,
		MaxWait:    500 * time.Microsecond,
		QueueDepth: 4 * clients,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer fleet.Close()

	_, shape, err := models.ServeTwin("mlp", tensor.NewRNG(42))
	if err != nil {
		b.Fatal(err)
	}
	rng := tensor.NewRNG(7)
	samples := make([]*tensor.Tensor, clients)
	for i := range samples {
		samples[i] = tensor.RandNormal(rng, 0, 1, shape...)
	}

	b.ResetTimer()
	var wg sync.WaitGroup
	for w := 0; w < clients; w++ {
		n := b.N / clients
		if w < b.N%clients {
			n++
		}
		if n == 0 {
			continue
		}
		wg.Add(1)
		go func(w, n int) {
			defer wg.Done()
			for i := 0; i < n; i++ {
				if _, err := fleet.Predict(samples[w]); err != nil {
					b.Error(err)
					return
				}
			}
		}(w, n)
	}
	wg.Wait()
	b.StopTimer()
	snap := fleet.Stats()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "samples/s")
	b.ReportMetric(snap.MeanOccupancy, "batch-occupancy")
}

// BenchmarkFleet sweeps the replica count at a fixed batch cap and
// client population. On a multi-core host the samples/s column is the
// replica-scaling curve; on a single core it documents the router and
// shared-weight overhead staying flat (see EXPERIMENTS.md).
func BenchmarkFleet(b *testing.B) {
	for _, replicas := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("replicas%d", replicas), func(b *testing.B) {
			benchFleetConfig(b, replicas, 64, 256)
		})
	}
}

// BenchmarkTwinStep measures one full training step of the numeric ResNet
// twin under the engine configurations the backend work targets: the
// seed-equivalent serial/no-pool mode, pooling alone, and pooling with the
// worker pool engaged.
func BenchmarkTwinStep(b *testing.B) {
	configs := []struct {
		name    string
		workers int
		pooled  bool
	}{
		{"serial-nopool", 1, false},
		{"pooled", 1, true},
		{"parallel-pooled", runtime.NumCPU(), true},
	}
	for _, cfg := range configs {
		b.Run(cfg.name, func(b *testing.B) {
			prevPool := tensor.SetPooling(cfg.pooled)
			tensor.SetParallelism(cfg.workers)
			defer func() {
				tensor.SetPooling(prevPool)
				tensor.SetParallelism(1)
			}()
			rng := tensor.NewRNG(10)
			src := data.NewImageSource(rng, 3, 16, 16, 10, 0.3)
			net := models.NumericResNet(rng, 3, 16, 10)
			opt := optim.NewAdam(0.01)
			batch := src.Batch(32)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				graph.TrainClassifierStep(net, opt, batch.X, batch.Labels, 5)
			}
			b.ReportMetric(32*float64(b.N)/b.Elapsed().Seconds(), "samples/s")
		})
	}
}

// BenchmarkProfSpan measures the profiler's span fast path in isolation:
// the disabled case is the per-callsite cost every kernel pays when no one
// is profiling (one atomic load, zero allocations — asserted by
// TestDisabledSpanAllocsNothing), and the enabled case is the full
// capture cost including the collector lock.
func BenchmarkProfSpan(b *testing.B) {
	b.Run("disabled", func(b *testing.B) {
		prof.Disable()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sp := prof.Begin(prof.CatKernel, "bench.span")
			sp.End()
		}
	})
	b.Run("enabled", func(b *testing.B) {
		prof.Enable()
		prof.SetMaxRecords(1) // cap the timeline; aggregation still runs
		defer func() {
			prof.Disable()
			prof.SetMaxRecords(0)
		}()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sp := prof.Begin(prof.CatKernel, "bench.span")
			sp.End()
		}
	})
}

// BenchmarkProfStep measures the profiler's end-to-end observer effect on
// the real workload: one ResNet-twin training step with capture off vs on.
// The benchcompare prof suite gates the on/off ratio (< 3% overhead
// enabled, ~0% disabled — the tentpole acceptance criterion of ISSUE 4).
func BenchmarkProfStep(b *testing.B) {
	for _, profiled := range []bool{false, true} {
		name := "off"
		if profiled {
			name = "on"
		}
		b.Run(name, func(b *testing.B) {
			tensor.SetParallelism(runtime.NumCPU())
			defer tensor.SetParallelism(1)
			rng := tensor.NewRNG(10)
			src := data.NewImageSource(rng, 3, 16, 16, 10, 0.3)
			net := models.NumericResNet(rng, 3, 16, 10)
			opt := optim.NewAdam(0.01)
			batch := src.Batch(32)
			if profiled {
				prof.Enable()
				defer prof.Disable()
			} else {
				prof.Disable()
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if profiled && i%64 == 0 {
					// Restart the capture periodically so the timeline
					// window never fills and every span takes the full
					// record-append path.
					prof.Enable()
				}
				graph.TrainClassifierStep(net, opt, batch.X, batch.Labels, 5)
			}
			b.ReportMetric(32*float64(b.N)/b.Elapsed().Seconds(), "samples/s")
		})
	}
}
