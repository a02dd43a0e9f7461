// Package memprof is the memory profiler — the paper's headline tooling
// contribution. It attributes GPU memory to the five categories of
// Figure 9 (prof.MemBreakdown), for both paper-scale op graphs (analytic)
// and live numeric networks.
package memprof

import (
	"tbd/internal/graph"
	"tbd/internal/kernels"
	"tbd/internal/prof"
)

// Policy captures the framework-specific allocation behaviour the paper's
// per-framework profilers had to reverse-engineer (§3.4.3).
type Policy struct {
	// WorkspaceFactor scales the convolution workspace arena (frameworks
	// trade workspace for faster algorithms).
	WorkspaceFactor float64
	// OptimizerStateFloatsPerWeight is the per-weight optimizer state
	// (1 for momentum, 2 for Adam).
	OptimizerStateFloatsPerWeight float64
	// DynamicOptimizerState marks frameworks (MXNet) that allocate
	// optimizer state lazily during training iterations; such state is
	// reported in the "dynamic" category rather than alongside weights.
	DynamicOptimizerState bool
	// AllocatorSlack is a multiplicative overhead for allocator
	// fragmentation and alignment (>= 1).
	AllocatorSlack float64
}

// DefaultPolicy is a neutral framework policy.
//
//tbd:api the neutral policy the memprof and whatif offload tests profile under, so no framework's factors move their expectations
func DefaultPolicy() Policy {
	return Policy{WorkspaceFactor: 1, OptimizerStateFloatsPerWeight: 1, AllocatorSlack: 1}
}

// ProfileOps computes the Figure-9 breakdown for a paper-scale op graph at
// the given batch size.
func ProfileOps(ops []*kernels.Op, batch int, p Policy) prof.MemBreakdown {
	if p.AllocatorSlack == 0 {
		p.AllocatorSlack = 1
	}
	var b prof.MemBreakdown
	var maxWorkspace int64
	for _, o := range ops {
		params := o.ParamElems() * 4
		b.Weights += params
		b.WeightGradients += params
		b.FeatureMaps += o.StashElemsPerSample() * int64(batch) * 4
		if w := o.WorkspaceBytes(batch); w > maxWorkspace {
			maxWorkspace = w
		}
	}
	b.Workspace = int64(float64(maxWorkspace) * p.WorkspaceFactor)
	state := int64(float64(b.Weights) * p.OptimizerStateFloatsPerWeight)
	if p.DynamicOptimizerState {
		b.Dynamic = state
	} else {
		b.Weights += state
	}
	b.Weights = int64(float64(b.Weights) * p.AllocatorSlack)
	b.FeatureMaps = int64(float64(b.FeatureMaps) * p.AllocatorSlack)
	return b
}

// FitsDevice reports whether the breakdown fits in capacity bytes, the
// check behind every "maximum mini-batch size" limit in the paper
// (e.g. Sockeye capping at 64 where NMT reaches 128 on 8 GB).
func FitsDevice(b prof.MemBreakdown, capacity int64) bool {
	return b.Total() <= capacity
}

// ProfileNetwork measures a live numeric network after a training-mode
// forward pass: real allocation sizes, not analytic estimates.
func ProfileNetwork(n *graph.Network, optimizerStateBytes int64, dynamicState bool) prof.MemBreakdown {
	b := prof.MemBreakdown{
		Weights:         n.WeightBytes(),
		WeightGradients: n.GradientBytes(),
		FeatureMaps:     n.StashBytes(),
	}
	if dynamicState {
		b.Dynamic = optimizerStateBytes
	} else {
		b.Weights += optimizerStateBytes
	}
	return b
}
