package sim

import (
	"math"
	"testing"

	"tbd/internal/device"
	"tbd/internal/kernels"
)

func cnnOps() []*kernels.Op {
	var ops []*kernels.Op
	c := 32
	h := 56
	for i := 0; i < 8; i++ {
		ops = append(ops,
			&kernels.Op{Name: "conv", Kind: kernels.OpConv2D, InC: c, OutC: c, H: h, W: h, K: 3, Stride: 1, Pad: 1},
			&kernels.Op{Name: "bn", Kind: kernels.OpBatchNorm, Channels: c, H: h, W: h},
			&kernels.Op{Name: "relu", Kind: kernels.OpActivation, Channels: c, H: h, W: h},
		)
	}
	return ops
}

func lstmOps() []*kernels.Op {
	var ops []*kernels.Op
	for i := 0; i < 4; i++ {
		ops = append(ops, &kernels.Op{Name: "lstm", Kind: kernels.OpLSTMSeq, T: 25, Input: 512, Hidden: 512})
	}
	return ops
}

func baseCfg() Config {
	return Config{
		GPU:               device.QuadroP4000,
		LaunchOverheadSec: 8e-6,
		SyncOverheadSec:   150e-6,
		IterOverheadSec:   2e-3,
	}
}

func TestConservationLaws(t *testing.T) {
	r := Simulate(cnnOps(), 16, kernels.StyleTF, baseCfg())
	if r.GPUBusySec > r.IterTimeSec+1e-12 {
		t.Fatalf("busy %.6f > elapsed %.6f", r.GPUBusySec, r.IterTimeSec)
	}
	if r.GPUUtil < 0 || r.GPUUtil > 1 || r.FP32Util < 0 || r.FP32Util > 1 || r.CPUUtil < 0 || r.CPUUtil > 1 {
		t.Fatalf("utilization out of range: %+v", r)
	}
	if r.Throughput <= 0 || r.KernelCount == 0 || r.FLOPs <= 0 {
		t.Fatalf("degenerate result: %+v", r)
	}
	// Per-kernel durations sum to busy time.
	var sum float64
	for _, st := range r.PerKernel {
		sum += st.TotalSec
	}
	if math.Abs(sum-r.GPUBusySec) > 1e-9 {
		t.Fatalf("per-kernel sum %.9f != busy %.9f", sum, r.GPUBusySec)
	}
}

func TestThroughputIncreasesWithBatch(t *testing.T) {
	// Observation 1: performance increases with mini-batch size.
	cfg := baseCfg()
	prev := 0.0
	for _, b := range []int{4, 8, 16, 32, 64} {
		r := Simulate(cnnOps(), b, kernels.StyleTF, cfg)
		if r.Throughput <= prev {
			t.Fatalf("throughput not increasing at batch %d: %.1f <= %.1f", b, r.Throughput, prev)
		}
		prev = r.Throughput
	}
}

func TestThroughputSaturatesForCNN(t *testing.T) {
	// Observation 2 (contrapositive): non-RNN models saturate — the
	// relative gain from 32->64 is much smaller than from 4->8.
	cfg := baseCfg()
	th := func(b int) float64 { return Simulate(cnnOps(), b, kernels.StyleTF, cfg).Throughput }
	gainSmall := th(8) / th(4)
	gainLarge := th(64) / th(32)
	if gainLarge >= gainSmall {
		t.Fatalf("no saturation: small-batch gain %.3f, large-batch gain %.3f", gainSmall, gainLarge)
	}
	if gainLarge > 1.15 {
		t.Fatalf("CNN should be nearly saturated by batch 32 (gain %.3f)", gainLarge)
	}
}

func TestLSTMUtilizationMuchLowerThanCNN(t *testing.T) {
	// Observation 5: GPU utilization of LSTM models is roughly 2-3x
	// lower than CNN models at comparable batch sizes.
	cfg := baseCfg()
	cnn := Simulate(cnnOps(), 32, kernels.StyleTF, cfg)
	lstm := Simulate(lstmOps(), 32, kernels.StyleTF, cfg)
	if cnn.GPUUtil < 0.85 {
		t.Fatalf("CNN GPU util %.2f, want high", cnn.GPUUtil)
	}
	ratio := cnn.GPUUtil / lstm.GPUUtil
	if ratio < 1.5 {
		t.Fatalf("CNN/LSTM GPU util ratio %.2f, want >= 1.5 (obs 5)", ratio)
	}
}

func TestLSTMFP32UtilLow(t *testing.T) {
	// Observation 7: RNN-based models have low FP32 utilization even at
	// their maximum batch size.
	cfg := baseCfg()
	lstm := Simulate(lstmOps(), 64, kernels.StyleTF, cfg)
	cnn := Simulate(cnnOps(), 64, kernels.StyleTF, cfg)
	if lstm.FP32Util >= cnn.FP32Util {
		t.Fatalf("lstm FP32 %.3f >= cnn %.3f", lstm.FP32Util, cnn.FP32Util)
	}
	if lstm.FP32Util > 0.35 {
		t.Fatalf("lstm FP32 util %.3f, want low", lstm.FP32Util)
	}
}

func TestTitanXpFasterButLessUtilized(t *testing.T) {
	// Observation 10: the Titan Xp improves throughput but shows worse
	// GPU and FP32 utilization than the P4000.
	p := baseCfg()
	x := baseCfg()
	x.GPU = device.TitanXp
	rp := Simulate(cnnOps(), 32, kernels.StyleTF, p)
	rx := Simulate(cnnOps(), 32, kernels.StyleTF, x)
	if rx.Throughput <= rp.Throughput {
		t.Fatalf("Titan Xp throughput %.1f <= P4000 %.1f", rx.Throughput, rp.Throughput)
	}
	if rx.FP32Util >= rp.FP32Util {
		t.Fatalf("Titan Xp FP32 util %.3f >= P4000 %.3f", rx.FP32Util, rp.FP32Util)
	}
	if rx.GPUUtil > rp.GPUUtil {
		t.Fatalf("Titan Xp GPU util %.3f > P4000 %.3f", rx.GPUUtil, rp.GPUUtil)
	}
}

func TestCPUUtilizationLow(t *testing.T) {
	// Observation 9: CPU utilization in DNN training is low (< 15%).
	cfg := baseCfg()
	cfg.HostCPUSecPerSample = 2e-3
	r := Simulate(cnnOps(), 32, kernels.StyleTF, cfg)
	if r.CPUUtil > 0.15 {
		t.Fatalf("CPU util %.3f, want < 0.15", r.CPUUtil)
	}
	if r.CPUUtil <= 0 {
		t.Fatal("CPU util must be positive")
	}
}

func TestInputPipelineCanBound(t *testing.T) {
	cfg := baseCfg()
	cfg.HostCPUSecPerSample = 1.0 // absurdly slow pipeline
	r := Simulate(cnnOps(), 32, kernels.StyleTF, cfg)
	if r.GPUUtil > 0.5 {
		t.Fatalf("pipeline-bound run should idle the GPU (util %.2f)", r.GPUUtil)
	}
}

func TestSyncKernelsCreateGaps(t *testing.T) {
	// The identical kernel stream with sync flags cleared must finish
	// no slower than the synced stream.
	cfg := baseCfg()
	stream := kernels.IterationKernels(lstmOps(), 32, kernels.StyleTF)
	synced := replay(stream, 32, cfg, nil)
	for i := range stream {
		stream[i].Sync = false
	}
	unsynced := replay(stream, 32, cfg, nil)
	if unsynced.IterTimeSec > synced.IterTimeSec {
		t.Fatalf("removing syncs slowed the run: %.4f > %.4f", unsynced.IterTimeSec, synced.IterTimeSec)
	}
	if unsynced.GPUUtil < synced.GPUUtil {
		t.Fatal("removing syncs should not reduce utilization")
	}
}

func TestLongLowUtilKernelsMatchesTables(t *testing.T) {
	// Tables 5/6: batch-norm kernels are among the longest
	// below-average-utilization kernels for ResNet-style CNNs.
	r := Simulate(cnnOps(), 32, kernels.StyleTF, baseCfg())
	low := LongLowUtilKernels(r, 5)
	if len(low) == 0 {
		t.Fatal("no low-utilization kernels found")
	}
	foundBN := false
	for _, st := range low {
		if st.Class == kernels.BatchNorm {
			foundBN = true
		}
		if st.Util >= r.FP32Util {
			t.Fatalf("kernel %s util %.3f not below average %.3f", st.Name, st.Util, r.FP32Util)
		}
	}
	if !foundBN {
		t.Fatalf("batch-norm kernels missing from low-util table: %+v", low)
	}
}

func TestSpeedFactorScalesThroughput(t *testing.T) {
	slow := baseCfg()
	fast := baseCfg()
	fast.SpeedFactor = 2
	rs := Simulate(cnnOps(), 32, kernels.StyleTF, slow)
	rf := Simulate(cnnOps(), 32, kernels.StyleTF, fast)
	if rf.Throughput <= rs.Throughput {
		t.Fatal("speed factor had no effect")
	}
}

func TestFLOPsInvariantAcrossDevices(t *testing.T) {
	// The workload's FLOPs are a property of the model, not the device.
	p := Simulate(cnnOps(), 16, kernels.StyleTF, baseCfg())
	x := baseCfg()
	x.GPU = device.TitanXp
	xt := Simulate(cnnOps(), 16, kernels.StyleTF, x)
	if p.FLOPs != xt.FLOPs {
		t.Fatalf("FLOPs changed across devices: %g vs %g", p.FLOPs, xt.FLOPs)
	}
}

func TestWarmupTraceDecaysToStable(t *testing.T) {
	tr := WarmupTrace(0.1, 200)
	if len(tr) != 200 {
		t.Fatalf("trace length %d", len(tr))
	}
	if tr[0] < 0.3 {
		t.Fatalf("first iteration %.3f should be much slower than stable", tr[0])
	}
	for i := 1; i < len(tr); i++ {
		if tr[i] > tr[i-1]+1e-12 {
			t.Fatal("warmup trace must be non-increasing")
		}
	}
	if math.Abs(tr[199]-0.1) > 0.001 {
		t.Fatalf("tail %.4f did not converge to stable 0.1", tr[199])
	}
}

func TestSimulatePanicsOnBadBatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("want panic on batch 0")
		}
	}()
	Simulate(cnnOps(), 0, kernels.StyleTF, baseCfg())
}

func TestInputTransferModeled(t *testing.T) {
	cfg := baseCfg()
	without := Simulate(cnnOps(), 32, kernels.StyleTF, cfg)
	cfg.SampleBytes = 3 * 256 * 256 * 4 // an ImageNet sample
	with := Simulate(cnnOps(), 32, kernels.StyleTF, cfg)
	if with.KernelCount != without.KernelCount+1 {
		t.Fatalf("transfer kernel missing: %d vs %d", with.KernelCount, without.KernelCount)
	}
	if with.IterTimeSec <= without.IterTimeSec {
		t.Fatal("input upload must cost some time")
	}
	// But it is a small overlappable fraction, per the paper's
	// observation that transfers parallelize with compute.
	if (with.IterTimeSec-without.IterTimeSec)/without.IterTimeSec > 0.10 {
		t.Fatalf("input transfer inflated iteration by %.1f%%",
			100*(with.IterTimeSec-without.IterTimeSec)/without.IterTimeSec)
	}
	// The transfer appears in the per-kernel stats with Transfer class.
	found := false
	for _, st := range with.PerKernel {
		if st.Class == kernels.Transfer {
			found = true
			if st.Util != 0 {
				t.Fatal("a copy has no FP32 utilization")
			}
		}
	}
	if !found {
		t.Fatal("transfer kernel not in per-kernel stats")
	}
}
