package sim

import "tbd/internal/kernels"

// PhaseProfile breaks one training iteration's GPU time into the three
// algorithmic phases of Figure 1 — forward pass, backward pass, and
// weight update — the breakdown Fathom-style tools report per op type
// and TBD's toolchain reports per phase.
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

// Phases prices each training phase of an op graph on the configured
// device (durations only; dispatch gaps are a whole-iteration property
// reported by Simulate).
func Phases(ops []*kernels.Op, batch int, style kernels.NameStyle, cfg Config) PhaseProfile {
	cfg = cfg.withDefaults()
	var p PhaseProfile
	price := func(ks []kernels.Kernel) (float64, int) {
		var t float64
		for _, k := range ks {
			t += k.Duration(cfg.GPU) / cfg.SpeedFactor
		}
		return t, len(ks)
	}
	for _, o := range ops {
		t, n := price(o.Forward(batch, style))
		p.ForwardSec += t
		p.ForwardKernels += n
		t, n = price(o.Backward(batch, style))
		p.BackwardSec += t
		p.BackwardKernels += n
		t, n = price(o.Update(style))
		p.UpdateSec += t
		p.UpdateKernels += n
	}
	return p
}
