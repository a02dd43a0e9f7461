package serve

import (
	"math"
	"sync"
	"testing"
	"time"

	"tbd/internal/models"
	"tbd/internal/prof"
	"tbd/internal/tensor"
)

// serveAll pushes the samples through a fresh one-replica fleet over sess
// (which freezes it, in fp16 storage when half) with the profiler
// capturing, and returns the per-request outputs (indexed like samples)
// plus the memory watermark of the run. The shared pool is drained first
// so the workspace watermark reflects only this run's scratch.
func serveAll(t *testing.T, sess *Session, half bool, samples []*tensor.Tensor) ([][]float32, prof.MemWatermark) {
	t.Helper()
	tensor.SetPooling(false)
	tensor.SetPooling(true)
	prof.Enable()
	defer prof.Disable()

	svc := oneReplica(t, sess, FleetConfig{
		MaxBatch:    16,
		MaxWait:     2 * time.Millisecond,
		QueueDepth:  len(samples),
		HalfWeights: half,
	})
	defer svc.Close()

	outs := make([][]float32, len(samples))
	var wg sync.WaitGroup
	errs := make([]error, len(samples))
	for i := range samples {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res, err := svc.Predict(samples[i])
			if err != nil {
				errs[i] = err
				return
			}
			outs[i] = res.Output
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
	}
	svc.Close() // freeze the capture before reading the watermark
	return outs, prof.Current(prof.Meta{}).Mem
}

// TestServeHalfWeights is the fp16-serving acceptance test. A fleet
// freezes its weights in either storage: (1) the fp32 frozen form holds
// exactly the unfrozen bytes and the fp16 one roughly half, as reported by
// Session.WeightBytes and, exactly, by the profiler's live watermark;
// (2) a frozen forward in either precision takes no B-panel pack buffer,
// only the A tiles the GEMMs pack; and (3) every fp16-served output stays
// within the weight-quantization tolerance of the fp32 answer.
func TestServeHalfWeights(t *testing.T) {
	fullNet, shape, err := models.ServeTwin("mlp", tensor.NewRNG(99))
	if err != nil {
		t.Fatal(err)
	}
	halfNet, _, err := models.ServeTwin("mlp", tensor.NewRNG(99))
	if err != nil {
		t.Fatal(err)
	}
	fullSess := NewSession(fullNet, shape...)
	halfSess := NewSession(halfNet, shape...)
	unfrozenBytes := fullSess.WeightBytes()
	if unfrozenBytes <= 0 {
		t.Fatal("full-precision session reports no weight bytes")
	}

	const nReq = 48
	rng := tensor.NewRNG(7)
	samples := make([]*tensor.Tensor, nReq)
	for i := range samples {
		samples[i] = tensor.RandNormal(rng, 0, 1, shape...)
	}

	fullOuts, fullW := serveAll(t, fullSess, false, samples)
	halfOuts, halfW := serveAll(t, halfSess, true, samples)

	fullBytes, halfBytes := fullSess.WeightBytes(), halfSess.WeightBytes()
	if fullBytes != unfrozenBytes {
		t.Fatalf("fp32 frozen weights %d bytes, unfrozen %d: the frozen form must replace W, not shadow it",
			fullBytes, unfrozenBytes)
	}
	if halfBytes <= 0 || halfBytes > fullBytes*55/100 {
		t.Fatalf("fp16 frozen weights %d bytes, want (0, %d] (55%% of full %d)",
			halfBytes, fullBytes*55/100, fullBytes)
	}

	// Per-request output tolerance: fp16 weight quantization perturbs each
	// weight by at most 2^-11 relative, so logits agree to a mixed
	// relative/absolute bound far looser than kernel-tier ULP noise.
	const relTol, absTol = 2e-2, 2e-2
	var worst float64
	for i := range samples {
		if len(halfOuts[i]) != len(fullOuts[i]) {
			t.Fatalf("request %d: output len %d, want %d", i, len(halfOuts[i]), len(fullOuts[i]))
		}
		for j := range fullOuts[i] {
			f := float64(fullOuts[i][j])
			d := math.Abs(float64(halfOuts[i][j]) - f)
			if r := d / math.Max(1, math.Abs(f)); r > worst {
				worst = r
			}
			if d > absTol && d > relTol*math.Abs(f) {
				t.Fatalf("request %d elem %d: fp16-served %g vs fp32 %g (diff %g exceeds rel %g / abs %g)",
					i, j, halfOuts[i][j], fullOuts[i][j], d, relTol, absTol)
			}
		}
	}
	t.Logf("worst fp16/fp32 output divergence: %.2e (bound rel=%g abs=%g)", worst, relTol, absTol)

	// The watermark's weights category is fed from Session.WeightBytes on
	// every flushed batch, so the watermark must attribute exactly the
	// resident footprint.
	fb, hb := fullW.MemBreakdown, halfW.MemBreakdown
	if fullW.Samples == 0 || halfW.Samples == 0 {
		t.Fatalf("watermark unsampled: full=%d half=%d batches", fullW.Samples, halfW.Samples)
	}
	if fb.Weights != fullBytes {
		t.Fatalf("watermark fp32 weights = %d, want %d", fb.Weights, fullBytes)
	}
	if hb.Weights != halfBytes {
		t.Fatalf("watermark fp16 weights = %d, want %d", hb.Weights, halfBytes)
	}
	if fb.WeightGradients != 0 || hb.WeightGradients != 0 || fb.Dynamic != 0 || hb.Dynamic != 0 {
		t.Fatalf("inference watermark has training categories: full=%+v half=%+v", fb, hb)
	}

	// Pack scratch: on the panel path a serial GEMM over whole 8-row tiles
	// takes one pooled buffer, its A tile. Packing B would take a second.
	defer tensor.SetParallelism(tensor.SetParallelism(1))
	const nFwd, gemmsPerFwd = 20, 3
	x := tensor.RandNormal(rng, 0, 1, 32, shape[0])
	for _, c := range []struct {
		name string
		sess *Session
		fast bool
	}{
		{"fp32", fullSess, tensor.GemmKernelTier() == "avx2"},
		{"fp16", halfSess, tensor.GemmHalfFast()},
	} {
		if !c.fast {
			t.Logf("%s: tier %s runs the unpack fallback; skipping the pack-scratch check", c.name, tensor.GemmKernelTier())
			continue
		}
		s0 := tensor.PoolStatsSnapshot()
		for i := 0; i < nFwd; i++ {
			c.sess.InferBatch(x)
		}
		if d := tensor.PoolStatsSnapshot().Sub(s0); d.PackGets > nFwd*gemmsPerFwd {
			t.Fatalf("%s: %d pack gets over %d frozen forwards, more than their %d A tiles: a B panel was packed",
				c.name, d.PackGets, nFwd, nFwd*gemmsPerFwd)
		}
	}
}

// TestFrozenInferBatchAllocatesNothing pins the frozen forward at zero
// garbage: a warmed InferBatch on a frozen session allocates nothing, in
// either storage, at B = 32 (whole tiles) and B = 13 (a padded row tail).
func TestFrozenInferBatchAllocatesNothing(t *testing.T) {
	defer tensor.SetParallelism(tensor.SetParallelism(1))
	for _, half := range []bool{false, true} {
		net, shape, err := models.ServeTwin("mlp", tensor.NewRNG(5))
		if err != nil {
			t.Fatal(err)
		}
		s := NewSession(net, shape...)
		if !s.Freeze(half) {
			t.Fatal("mlp twin does not freeze")
		}
		for _, b := range []int{32, 13} {
			x := tensor.RandNormal(tensor.NewRNG(6), 0, 1, b, shape[0])
			s.InferBatch(x)
			if got := testing.AllocsPerRun(50, func() { s.InferBatch(x) }); got != 0 {
				t.Fatalf("half=%v B=%d: %.1f allocations a warmed frozen InferBatch", half, b, got)
			}
		}
	}
}
