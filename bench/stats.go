package main

import (
	"math"
	"sort"
	"time"

	"tbd/internal/tensor"
)

// quantile returns the q-quantile (0 <= q <= 1) of an ascending slice by
// linear interpolation between the two nearest ranks; 0 for no samples.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return sorted[lo] + (pos-float64(lo))*(sorted[hi]-sorted[lo])
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func median(xs []float64) float64 { return quantile(sortedCopy(xs), 0.5) }

// tails are the percentiles a run may report, highest first, each with the
// sample count it takes for one sample in expectation to lie beyond it.
var tails = []struct {
	pct   float64
	oneIn int
}{{99.99, 10000}, {99.9, 1000}, {99, 100}, {95, 20}, {90, 10}, {75, 4}}

// topPercentile returns the highest percentile of an ascending slice that
// still has at least ten samples beyond it, and its value. Below that a
// "p99" is one or two outliers and does not repeat; with fewer than 40
// samples nothing above the median qualifies and the median is returned.
func topPercentile(sorted []float64) (pct, value float64) {
	for _, t := range tails {
		if len(sorted) >= 10*t.oneIn {
			return t.pct, quantile(sorted, t.pct/100)
		}
	}
	return 50, quantile(sorted, 0.5)
}

func nsToMs(ns []int64) []float64 {
	ms := make([]float64, len(ns))
	for i, v := range ns {
		ms[i] = float64(v) / 1e6
	}
	return ms
}

// span is one timed call into a layer, recorded by the harness from
// outside the program. Times are raw nanoseconds since the slice began;
// Parent indexes the slice's span list (-1 for an op's root span); every
// span of one op shares Op.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
}

// tracer keeps one goroutine's spans in memory until the slice ends;
// goroutines that share t0 are merged afterwards with appendSpans. A nil
// tracer means the untraced run, and callers branch on that instead of
// paying for no-op calls inside the timed window.
type tracer struct {
	t0    time.Time
	spans []span
}

// root opens the top span of op.
func (t *tracer) root(name string, op int) int { return t.open(name, -1, op) }

// begin opens a child of parent, inheriting its op.
func (t *tracer) begin(name string, parent int) int { return t.open(name, parent, -1) }

func (t *tracer) open(name string, parent, op int) int {
	if parent >= 0 {
		op = t.spans[parent].Op
	}
	t.spans = append(t.spans, span{Name: name, Start: int64(time.Since(t.t0)), Parent: parent, Op: op})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) { t.spans[id].End = int64(time.Since(t.t0)) }

// appendSpans appends one goroutine's spans to the slice's list, moving
// their parent indexes along.
func appendSpans(all, more []span) []span {
	off := len(all)
	for _, s := range more {
		if s.Parent >= 0 {
			s.Parent += off
		}
		all = append(all, s)
	}
	return all
}

// selfTimes returns, per span, its duration minus the part of its
// interval that its child spans cover. Children may overlap (concurrent
// ranks) or overhang, so their intervals are clipped to the parent and
// merged before subtracting.
func selfTimes(spans []span) []int64 {
	children := make(map[int][]int)
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] = s.End - s.Start
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].Start < spans[kids[b]].Start })
		covered := s.Start
		for _, k := range kids {
			lo, hi := max(spans[k].Start, covered), min(spans[k].End, s.End)
			if hi > lo {
				self[i] -= hi - lo
				covered = hi
			}
		}
	}
	return self
}

// spanMsPerOp returns the median over ops of the total milliseconds the op
// spent in spans called name (an op may enter a layer more than once);
// 0 when the workload never makes that call.
func spanMsPerOp(clk *clock, spans []span, name string) float64 {
	perOp := make(map[int]float64)
	for _, s := range spans {
		if s.Name == name {
			perOp[s.Op] += clk.scale(s.Start, s.End) / 1e6
		}
	}
	ms := make([]float64, 0, len(perOp))
	for _, v := range perOp {
		ms = append(ms, v)
	}
	return median(ms)
}

// unattributedShare is the share of all "step" root-span time that no
// child span covers: the part of a step the per-layer rows do not explain.
func unattributedShare(spans []span) float64 {
	self := selfTimes(spans)
	var own, total int64
	for i, s := range spans {
		if s.Parent < 0 && s.Name == "step" {
			own += self[i]
			total += s.End - s.Start
		}
	}
	if total == 0 {
		return 0
	}
	return float64(own) / float64(total)
}

// poissonSchedule draws the intended send times of an open-loop generator
// at rate requests per second over d: exponential gaps from the seeded
// RNG and nothing else, so a seed fixes the offered load exactly.
func poissonSchedule(rng *tensor.RNG, rate float64, d time.Duration) []time.Duration {
	var at []time.Duration
	t := 0.0
	for {
		t += -math.Log(1-rng.Float64()) / rate
		if t >= d.Seconds() {
			return at
		}
		at = append(at, time.Duration(t*float64(time.Second)))
	}
}
