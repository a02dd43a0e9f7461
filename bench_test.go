package tbd

// The root benchmarks. Each is recorded into one committed BENCH_*.json
// file, and `go run ./cmd/benchcompare -suite X` runs exactly the
// benchmarks BENCH_X.json names on the base revision's build and the
// working tree's, alternately, and compares the two:
//
//	make bench         BENCH_numeric.json  GEMM tiers, conv, dense, batch norm, optimizer, twin step
//	make bench-serve   BENCH_serve.json    serve.Fleet batch-cap and replica sweeps
//	make bench-prof    BENCH_prof.json     profiler span and step overhead
//	make bench-dist    BENCH_dist.json     distributed matrix (bench_dist_test.go)
//	make bench-whatif  BENCH_whatif.json   what-if replay and recording (bench_whatif_test.go)
//
// cmd/benchcompare's tests fail on a benchmark no BENCH_*.json names. The
// paper's tables, figures and observations are checked by internal/core's
// tests, not timed here.

import (
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"tbd/internal/data"
	"tbd/internal/graph"
	"tbd/internal/layers"
	"tbd/internal/models"
	"tbd/internal/optim"
	"tbd/internal/prof"
	"tbd/internal/serve"
	"tbd/internal/tensor"
)

// --- numeric-backend benchmarks (BENCH_numeric.json) ---

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
// the active (widest) tier: the weight matrix is frozen once into a panel
// of uint16 halves, so a call packs no weights.
func BenchmarkGEMMHalf(b *testing.B) {
	for _, n := range []int{256, 512, 1024} {
		b.Run(fmt.Sprint(n), func(b *testing.B) {
			rng := tensor.NewRNG(8)
			a := tensor.RandNormal(rng, 0, 1, n, n)
			wh := tensor.Freeze(tensor.RandNormal(rng, 0, 1, n, n), true)
			fn := float64(n)
			b.SetBytes(int64(n) * int64(n) * (4 + 2 + 4))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tensor.MatMulFrozenBiasAct(a, wh, nil, tensor.ActNone).Release()
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
		y := tensor.Conv2DFused(x, w, nil, tensor.ActNone, 1, 1)
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

// BenchmarkBatchNormFwdBwd measures a training BatchNorm forward and
// backward at train_conv's feature-map shape, [32, 8, 16, 16]: the layer
// tensor.BatchNormForward and BatchNormBackward run, with their channel
// sums, normalize and gradient bodies.
func BenchmarkBatchNormFwdBwd(b *testing.B) {
	rng := tensor.NewRNG(13)
	l := layers.NewBatchNorm2D("bn", 8)
	x := tensor.RandNormal(rng, 0, 1, 32, 8, 16, 16)
	gy := tensor.RandNormal(rng, 0, 1, 32, 8, 16, 16)
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

// BenchmarkServeBatched is the one-replica fleet — many single-sample
// requests racing into one admission queue, one runner batching them down
// onto the network: the serving daemon's steady state at -replicas 1. It
// sweeps the dynamic batch cap at a fixed 64-client closed-loop load. cap1
// is the unbatched baseline, every request its own forward pass; cap64 is
// expected to serve at least 3x its throughput.
func BenchmarkServeBatched(b *testing.B) {
	for _, cap := range []int{1, 4, 16, 64} {
		b.Run(fmt.Sprintf("cap%d", cap), func(b *testing.B) {
			benchFleetConfig(b, 1, cap, 64, false)
		})
	}
}

// benchFleetConfig drives a Fleet (weights frozen as fp16 when half, as
// fp32 otherwise) with a fixed closed-loop client population and reports
// sustained request throughput and mean batch occupancy. The b.N requests
// are split across the clients.
func benchFleetConfig(b *testing.B, replicas, maxBatch, clients int, half bool) {
	b.Helper()
	factory := func() (*serve.Session, error) {
		net, shape, err := models.ServeTwin("mlp", tensor.NewRNG(42))
		if err != nil {
			return nil, err
		}
		return serve.NewSession(net, shape...), nil
	}
	fleet, err := serve.NewFleet(factory, serve.FleetConfig{
		Replicas:    replicas,
		MaxBatch:    maxBatch,
		MaxWait:     500 * time.Microsecond,
		QueueDepth:  4 * clients,
		HalfWeights: half,
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
// shared-weight overhead staying flat (see EXPERIMENTS.md). The last row
// is the one-replica fleet with its frozen weights stored as fp16.
func BenchmarkFleet(b *testing.B) {
	for _, replicas := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("replicas%d", replicas), func(b *testing.B) {
			benchFleetConfig(b, replicas, 64, 256, false)
		})
	}
	b.Run("replicas1-fp16", func(b *testing.B) { benchFleetConfig(b, 1, 64, 256, true) })
}

// --- twin step (BENCH_numeric.json) and profiler overhead (BENCH_prof.json) ---

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
