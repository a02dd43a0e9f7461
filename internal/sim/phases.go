package sim

import "tbd/internal/kernels"

// PhaseProfile breaks one training iteration's GPU time into the three
// algorithmic phases of Figure 1 — forward pass, backward pass, and
// weight update — the breakdown Fathom-style tools report per op type
// and TBD's toolchain reports per phase. Replay accumulates it; dispatch
// gaps are a whole-iteration property (Result.GapSec).
type PhaseProfile struct {
	ForwardSec  float64
	BackwardSec float64
	UpdateSec   float64
	// Kernel counts per phase.
	ForwardKernels, BackwardKernels, UpdateKernels int
}

// TotalSec returns the summed phase time.
//
//tbd:api the phase total the sim and core gap-share tests divide by
func (p PhaseProfile) TotalSec() float64 {
	return p.ForwardSec + p.BackwardSec + p.UpdateSec
}

// add charges one kernel of duration dur to its pass.
func (p *PhaseProfile) add(ph kernels.Phase, dur float64) {
	switch ph {
	case kernels.PhaseForward:
		p.ForwardSec += dur
		p.ForwardKernels++
	case kernels.PhaseBackward:
		p.BackwardSec += dur
		p.BackwardKernels++
	case kernels.PhaseUpdate:
		p.UpdateSec += dur
		p.UpdateKernels++
	}
}
