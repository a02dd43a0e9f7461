// Package whatif is the Daydream-style what-if predictor: it replays the
// span tree of a real profiled run (prof's trace file: every span with
// its parent edge) under a proposed transformation — kernel speedups, a
// different worker count, batch-size scaling, fp16 storage, fused vs
// unfused epilogues, network bandwidth or gradient-compression changes —
// to predict the step time and peak memory of a configuration that was
// never run. The approach follows Daydream (Zhu et al., ATC 2020), the
// companion to the TBD paper this repo reproduces: record the dependency
// structure once from real execution, then simulate optimizations by
// transforming and replaying the graph instead of re-implementing them.
//
// The package also owns the op-level memory what-ifs that used to live in
// memprof (vDNN-style feature-map offload planning), so one entry point —
// `tbd whatif` — answers both time and memory questions.
package whatif

import (
	"fmt"

	"tbd/internal/prof"
)

// Trace is what replay reads: the profiler's trace, one capture per rank.
type Trace = prof.Trace

// Meta pins the configuration a trace was recorded under.
type Meta = prof.Meta

// Capture snapshots the finished live capture as a one-rank trace. It
// fails on an empty capture; spans dropped past the record cap ride along
// in Dropped, which replay refuses.
func Capture(meta Meta) (*Trace, error) {
	t := prof.Current(meta)
	if t.Spans() == 0 {
		return nil, fmt.Errorf("whatif: no profiler records captured (was prof.Enable called before the run?)")
	}
	return t, nil
}

// Merge combines per-rank traces into one cluster trace. Captures stay
// keyed by rank (the file's pid), so span IDs need no renumbering. Meta
// comes from the first trace with Rank cleared, and the watermarks add,
// since ranks are separate processes.
func Merge(traces ...*Trace) (*Trace, error) {
	if len(traces) == 0 {
		return nil, fmt.Errorf("whatif: nothing to merge")
	}
	out := &Trace{Meta: traces[0].Meta}
	out.Meta.Rank = 0
	for _, tr := range traces {
		if tr == nil {
			return nil, fmt.Errorf("whatif: merge input missing a rank trace")
		}
		out.Ranks = append(out.Ranks, tr.Ranks...)
		out.Dropped += tr.Dropped
		out.Mem.Weights += tr.Mem.Weights
		out.Mem.WeightGradients += tr.Mem.WeightGradients
		out.Mem.FeatureMaps += tr.Mem.FeatureMaps
		out.Mem.Workspace += tr.Mem.Workspace
		out.Mem.Dynamic += tr.Mem.Dynamic
		out.Mem.PeakTotal += tr.Mem.PeakTotal
	}
	out.Mem.Samples = traces[0].Mem.Samples
	return out, nil
}
