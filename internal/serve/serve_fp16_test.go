package serve

import (
	"math"
	"sync"
	"testing"
	"time"

	"tbd/internal/memprof"
	"tbd/internal/models"
	"tbd/internal/prof"
	"tbd/internal/tensor"
)

// serveAll pushes the samples through a fresh one-replica fleet over sess
// with the profiler capturing, and returns the per-request outputs
// (indexed like samples) plus the memory watermark of the run. The shared
// pool is drained first so the workspace watermark reflects only this
// run's pack scratch.
func serveAll(t *testing.T, sess *Session, samples []*tensor.Tensor) ([][]float32, prof.MemWatermark) {
	t.Helper()
	tensor.SetPooling(false)
	tensor.SetPooling(true)
	prof.Enable()
	defer prof.Disable()

	svc := oneReplica(t, sess, FleetConfig{
		MaxBatch:   16,
		MaxWait:    2 * time.Millisecond,
		QueueDepth: len(samples),
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

// TestServeHalfWeights is the fp16-serving acceptance test: freezing a
// session's weights to half storage must (1) roughly halve the resident
// weight bytes as reported by Session.WeightBytes and the profiler's
// live watermark, (2) shrink the pack workspace watermark when the
// native fp16 kernel path is available (the B panels pack as uint16),
// and (3) keep every served output within the fp16 weight-quantization
// tolerance of the full-precision session's answer.
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

	fullBytes := fullSess.WeightBytes()
	if fullBytes <= 0 {
		t.Fatal("full-precision session reports no weight bytes")
	}
	if !halfSess.FreezeHalfWeights() {
		t.Fatal("FreezeHalfWeights returned false for an all-dense twin")
	}
	halfBytes := halfSess.WeightBytes()
	if halfBytes <= 0 || halfBytes > fullBytes*55/100 {
		t.Fatalf("frozen weights %d bytes, want (0, %d] (55%% of full %d)",
			halfBytes, fullBytes*55/100, fullBytes)
	}

	const nReq = 48
	rng := tensor.NewRNG(7)
	samples := make([]*tensor.Tensor, nReq)
	for i := range samples {
		samples[i] = tensor.RandNormal(rng, 0, 1, shape...)
	}

	fullOuts, fullW := serveAll(t, fullSess, samples)
	halfOuts, halfW := serveAll(t, halfSess, samples)

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
	// every flushed batch, so ProfileLive must attribute exactly the
	// resident footprint — halved for the frozen run.
	fb, hb := memprof.ProfileLive(fullW), memprof.ProfileLive(halfW)
	if fullW.Samples == 0 || halfW.Samples == 0 {
		t.Fatalf("watermark unsampled: full=%d half=%d batches", fullW.Samples, halfW.Samples)
	}
	if fb.Weights != fullBytes {
		t.Fatalf("ProfileLive full weights = %d, want %d", fb.Weights, fullBytes)
	}
	if hb.Weights != halfBytes {
		t.Fatalf("ProfileLive frozen weights = %d, want %d", hb.Weights, halfBytes)
	}
	if fb.WeightGradients != 0 || hb.WeightGradients != 0 || fb.Dynamic != 0 || hb.Dynamic != 0 {
		t.Fatalf("inference watermark has training categories: full=%+v half=%+v", fb, hb)
	}

	// Pack-workspace reduction needs the native fp16 kernels (uint16 B
	// panels at half the bytes); the widening fallback packs fp32.
	if !tensor.GemmHalfFast() {
		t.Logf("fp16 fast path unavailable (tier %s); skipping workspace check", tensor.GemmKernelTier())
		return
	}
	if fb.Workspace <= 0 {
		t.Fatal("full-precision run retained no pack workspace")
	}
	if hb.Workspace >= fb.Workspace*3/4 {
		t.Fatalf("fp16 pack workspace %d not reduced vs fp32 %d (want < 75%%)", hb.Workspace, fb.Workspace)
	}
	t.Logf("pack workspace: fp32 %d B -> fp16 %d B (%.0f%%); weights %d -> %d B",
		fb.Workspace, hb.Workspace, 100*float64(hb.Workspace)/float64(fb.Workspace), fullBytes, halfBytes)
}
