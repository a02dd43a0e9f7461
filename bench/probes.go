package main

import (
	"math"

	"tbd/internal/layers"
	"tbd/internal/models"
	"tbd/internal/tensor"
)

// Standalone probes: single layers and kernels called directly at the
// shapes the workloads give them, so a traced run can say which layer
// moved without depending on which workload it traced.

// probeMs returns the median milliseconds of reps calls of f, after two
// calls that fill pools and caches.
func probeMs(clk *clock, reps int, f func()) float64 {
	var runs []interval
	for i := -2; i < reps; i++ {
		from := clk.now()
		f()
		if i >= 0 {
			runs = append(runs, interval{from, clk.now()})
		}
	}
	return medianMs(clk, runs)
}

func medianMs(clk *clock, runs []interval) float64 {
	ms := make([]float64, len(runs))
	for i, r := range runs {
		ms[i] = clk.scale(r.from, r.to) / 1e6
	}
	return median(ms)
}

// gemmGflops times one GEMM layout and returns GFLOP/s. The operation
// count comes from the shapes alone: operands and result hold n*k, k*m and
// n*m elements in every layout, so their product is (nkm) squared.
func gemmGflops(clk *clock, reps int, mul func(a, b *tensor.Tensor) *tensor.Tensor, aRows, aCols, bRows, bCols int) float64 {
	rng := tensor.NewRNG(modelSeed)
	a := tensor.RandNormal(rng, 0, 1, aRows, aCols)
	b := tensor.RandNormal(rng, 0, 1, bRows, bCols)
	var nkm float64
	ms := probeMs(clk, reps, func() {
		out := mul(a, b)
		nkm = math.Sqrt(float64(a.Numel()) * float64(b.Numel()) * float64(out.Numel()))
		out.Release()
	})
	return 2 * nkm / (ms * 1e6)
}

// layerProbe times Forward (training mode) and Backward of one layer,
// alternating as a training step does.
func layerProbe(clk *clock, reps int, l layers.Layer, x *tensor.Tensor) (fwdMs, bwdMs float64) {
	gy := tensor.Full(0.01, l.Forward(x, true).Shape()...)
	var fwd, bwd []interval
	for i := -2; i < reps; i++ {
		t0 := clk.now()
		l.Forward(x, true)
		t1 := clk.now()
		l.Backward(gy)
		if i >= 0 {
			fwd = append(fwd, interval{t0, t1})
			bwd = append(bwd, interval{t1, clk.now()})
		}
	}
	return medianMs(clk, fwd), medianMs(clk, bwd)
}

func runProbes(clk *clock, layer map[string]float64) {
	rng := tensor.NewRNG(modelSeed)

	// The three layouts of train_gemm's dense layers, then the shapes of
	// serve_sat's full batch and of a dist rank's shard.
	layer["tensor.gemm_1024_gflops"] = gemmGflops(clk, 15, tensor.MatMul, 256, 1024, 1024, 1024)
	layer["tensor.gemm_transA_1024_gflops"] = gemmGflops(clk, 15, tensor.MatMulTransA, 256, 1024, 256, 1024)
	layer["tensor.gemm_transB_1024_gflops"] = gemmGflops(clk, 15, tensor.MatMulTransB, 256, 1024, 1024, 1024)
	layer["tensor.gemm_m32_gflops"] = gemmGflops(clk, 200, tensor.MatMul, 32, 512, 512, 512)
	layer["tensor.gemm_m16_gflops"] = gemmGflops(clk, 200, tensor.MatMul, 16, 256, 256, 512)
	tensor.SetParallelism(2)
	par2 := gemmGflops(clk, 15, tensor.MatMul, 256, 1024, 1024, 1024)
	tensor.SetParallelism(1)
	layer["tensor.gemm_par2_speedup"] = par2 / layer["tensor.gemm_1024_gflops"]

	dense := layers.NewDenseAct("probe.dense", 1024, 1024, tensor.ActReLU, rng)
	layer["layers.dense1024_fwd_ms"], layer["layers.dense1024_bwd_ms"] =
		layerProbe(clk, 15, dense, tensor.RandNormal(rng, 0, 1, 256, 1024))

	// train_conv's feature maps are [32, 8, 16, 16] from the first block on.
	fmap := tensor.RandNormal(rng, 0, 1, 32, 8, 16, 16)
	conv := layers.NewConv2DNoBias("probe.conv", 8, 8, 3, 1, 1, rng)
	layer["layers.conv3x3_fwd_ms"], layer["layers.conv3x3_bwd_ms"] = layerProbe(clk, 100, conv, fmap)
	bn := layers.NewBatchNorm2D("probe.bn", 8)
	layer["layers.batchnorm_fwd_ms"], layer["layers.batchnorm_bwd_ms"] = layerProbe(clk, 100, bn, fmap)
	// The twin's own second block (identity skip) and its pooling + dense
	// head, lifted out of the model so the probe follows the model.
	twin := models.NumericResNet(rng, 3, 16, 10).Root.(*layers.Sequential).Layers
	f, b := layerProbe(clk, 50, twin[2], fmap)
	layer["layers.residual_ms"] = f + b
	f, b = layerProbe(clk, 100, layers.NewSequential("probe.head", twin[4], twin[5]), fmap)
	layer["layers.head_ms"] = f + b

	sess, err := newServeSession()
	if err != nil {
		return
	}
	for _, p := range []struct {
		metric string
		batch  int
	}{{"serve.infer_b1_ms", 1}, {"serve.infer_b32_ms", 32}} {
		x := tensor.RandNormal(rng, 0, 1, p.batch, sess.SampleLen())
		layer[p.metric] = probeMs(clk, 200, func() { sess.InferBatch(x) })
	}
}
