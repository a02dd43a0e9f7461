package sim

import (
	"testing"

	"tbd/internal/kernels"
)

func TestPhasesBackwardHeavierThanForward(t *testing.T) {
	p := Simulate(cnnOps(), 32, kernels.StyleTF, baseCfg()).Phases
	if p.ForwardSec <= 0 || p.BackwardSec <= 0 || p.UpdateSec <= 0 {
		t.Fatalf("degenerate phase profile: %+v", p)
	}
	ratio := p.BackwardToForwardRatio()
	if ratio < 1.2 || ratio > 3.5 {
		t.Fatalf("backward/forward ratio %.2f, want ~2x", ratio)
	}
	if p.UpdateSec >= p.ForwardSec {
		t.Fatal("weight update should be cheap relative to the passes")
	}
}

func TestPhasesKernelCountsMatchEmission(t *testing.T) {
	ops := cnnOps()
	cfg := baseCfg()
	cfg.SampleBytes = 3 * 224 * 224 * 4
	r := Simulate(ops, 8, kernels.StyleTF, cfg)
	p := r.Phases
	total := p.ForwardKernels + p.BackwardKernels + p.UpdateKernels
	if total != len(kernels.IterationKernels(ops, 8, kernels.StyleTF)) {
		t.Fatalf("phase kernel counts (%d) disagree with the full stream", total)
	}
	if total != r.KernelCount-1 {
		t.Fatalf("phases hold %d kernels of %d; only the input transfer belongs to none", total, r.KernelCount)
	}
}

func TestPhasesTotalBelowIterationTime(t *testing.T) {
	// Phase durations exclude dispatch gaps, so their sum is at most the
	// simulated iteration's span and equals its busy time.
	r := Simulate(lstmOps(), 16, kernels.StyleTF, baseCfg())
	p := r.Phases
	if p.TotalSec() > r.IterTimeSec {
		t.Fatalf("phase total %.4f exceeds iteration %.4f", p.TotalSec(), r.IterTimeSec)
	}
	diff := p.TotalSec() - r.GPUBusySec
	if diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("phase total %.6f != busy %.6f", p.TotalSec(), r.GPUBusySec)
	}
}

func TestPhasesZeroRatioWithoutForward(t *testing.T) {
	p := PhaseProfile{BackwardSec: 1}
	if p.BackwardToForwardRatio() != 0 {
		t.Fatal("zero forward must yield zero ratio")
	}
}

// BackwardToForwardRatio returns backward time over forward time; ~2x is
// the rule of thumb the paper's background section describes (gradient
// w.r.t. both data and weights).
func (p PhaseProfile) BackwardToForwardRatio() float64 {
	if p.ForwardSec == 0 {
		return 0
	}
	return p.BackwardSec / p.ForwardSec
}
