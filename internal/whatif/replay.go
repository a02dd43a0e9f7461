package whatif

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"

	"tbd/internal/device"
	"tbd/internal/prof"
	"tbd/internal/report"
)

// Replay is the prediction engine: it walks the recorded dependence
// graph bottom-up, transforms each span's self time (the part not
// covered by its children) according to the scenario, and re-sums the
// tree. Sequence edges are implicit — siblings under one parent ran
// sequentially in the recording, so a parent's predicted duration is its
// transformed self time plus its children's predicted durations, and the
// gaps between root spans (untraced glue) carry over unchanged.
//
// The model is deliberately Daydream's: span durations are ground truth
// from a real run; only the deltas are simulated. Anything the trace
// does not attribute (e.g. synthetic-data generation inside a step's
// residue) is held constant, and every such assumption lands in
// Prediction.Notes.
func Replay(t *Trace, sc *Scenario) (*Prediction, error) {
	if len(t.Spans) == 0 {
		return nil, fmt.Errorf("whatif: empty trace")
	}
	g, err := buildGraph(t)
	if err != nil {
		return nil, err
	}
	p := &Prediction{
		Scenario:       sc.Spec,
		Transforms:     sc.Describe(),
		BaselineWallUs: t.WallUs,
		MemBefore:      t.Mem,
		MemAfter:       t.Mem,
	}

	// Roofline calibration from the trace itself: the best achieved
	// bandwidth and FLOP rate bound what "memory-bound" means on the
	// machine that produced the recording.
	peakBWBps, peakFLOPs := calibrate(t)

	transferUsPerStep := applyMemory(p, t, sc)
	applyTime(g, t, sc, peakBWBps, peakFLOPs)
	applyDrop(g, sc)

	// Re-sum the tree bottom-up; spans are start-sorted so children
	// always carry a larger index... not guaranteed (ID order within same
	// start). Compute via recursion with memoization instead.
	newDur := make([]float64, len(g.nodes))
	for i := range newDur {
		newDur[i] = -1
	}
	var sum func(i int) float64
	sum = func(i int) float64 {
		if newDur[i] >= 0 {
			return newDur[i]
		}
		d := g.nodes[i].newSelfUs
		for _, c := range g.nodes[i].children {
			d += sum(c)
		}
		newDur[i] = d
		return d
	}
	for i := range g.nodes {
		sum(i)
	}

	// Wall time per rank: the recorded wall minus what the roots took,
	// plus what they are predicted to take (root-to-root gaps carry over).
	rankBase := map[int]float64{}
	rankPred := map[int]float64{}
	rankSteps := map[int]int{}
	for _, ri := range t.Ranks {
		rankBase[ri.Rank] = ri.WallUs
	}
	if len(t.Ranks) == 0 {
		rankBase[0] = t.WallUs
	}
	//tbd:nondeterministic-ok copies map entries key-by-key; each key written once, order-free
	for r, w := range rankBase {
		rankPred[r] = w
	}
	for i, n := range g.nodes {
		if n.s.Name == "step" && n.s.Cat == "phase" {
			p.Steps++
			rankSteps[n.s.Rank]++
			p.BaselineStepUs += n.s.DurUs
			p.PredictedStepUs += newDur[i] + transferUsPerStep
		}
		if n.s.Parent == 0 {
			rankPred[n.s.Rank] += newDur[i] - n.s.DurUs
		}
	}
	if p.Steps > 0 {
		p.BaselineStepUs /= float64(p.Steps)
		p.PredictedStepUs /= float64(p.Steps)
	}
	//tbd:nondeterministic-ok per-key increment of distinct entries; order-free
	for r, n := range rankSteps {
		rankPred[r] += float64(n) * transferUsPerStep
	}
	// Cluster wall = slowest rank, before and after.
	//tbd:nondeterministic-ok max over map values is order-independent
	for _, w := range rankBase {
		p.BaselineWallUs = math.Max(p.BaselineWallUs, w)
	}
	//tbd:nondeterministic-ok max over map values is order-independent
	for _, w := range rankPred {
		p.PredictedWallUs = math.Max(p.PredictedWallUs, w)
	}

	p.Phases = aggregate(g, newDur, func(s *Span) bool { return s.Cat == "phase" || s.Cat == "comm" }, false)
	p.Kernels = aggregate(g, newDur, func(s *Span) bool {
		return s.Cat == "kernel" || s.Cat == "optim" || s.Cat == "comm"
	}, true)
	if transferUsPerStep > 0 {
		p.Notes = append(p.Notes, fmt.Sprintf("offload adds %.2f ms of PCIe traffic per step (charged to step and wall time)", transferUsPerStep/1e3))
	}
	p.Notes = append(p.Notes, g.notes...)
	return p, nil
}

// graph is the parsed dependence graph: one node per span, children in
// start order, self time split out.
type graph struct {
	nodes []gnode
	notes []string
}

type gnode struct {
	s         *Span
	children  []int
	selfUs    float64
	newSelfUs float64
	// effFLOPs/effBytes are the span's work after batch rescaling, which
	// later clauses (kernelmodel, fp16) consume.
	effFLOPs float64
	effBytes float64
}

func buildGraph(t *Trace) (*graph, error) {
	g := &graph{nodes: make([]gnode, len(t.Spans))}
	byID := make(map[uint64]int, len(t.Spans))
	for i := range t.Spans {
		s := &t.Spans[i]
		g.nodes[i] = gnode{s: s, selfUs: s.DurUs, effFLOPs: s.FLOPs, effBytes: float64(s.Bytes)}
		byID[s.ID] = i
	}
	for i := range t.Spans {
		s := &t.Spans[i]
		if s.Parent == 0 {
			continue
		}
		pi, ok := byID[s.Parent]
		if !ok {
			return nil, fmt.Errorf("whatif: span %d (%q) has unrecorded parent %d", s.ID, s.Name, s.Parent)
		}
		g.nodes[pi].children = append(g.nodes[pi].children, i)
		g.nodes[pi].selfUs -= s.DurUs
	}
	for i := range g.nodes {
		if g.nodes[i].selfUs < 0 {
			// Concurrent children (overlapping spans) can exceed the
			// parent's span; the parent's own work is then fully hidden.
			g.nodes[i].selfUs = 0
		}
		g.nodes[i].newSelfUs = g.nodes[i].selfUs
	}
	return g, nil
}

// calibrate extracts the machine's best achieved memory bandwidth (B/s)
// and FLOP rate (FLOP/s) from the recording, the two roofline anchors
// the fp16 and fused models price memory passes against.
func calibrate(t *Trace) (peakBWBps, peakFLOPs float64) {
	for i := range t.Spans {
		s := &t.Spans[i]
		if s.DurUs <= 0 {
			continue
		}
		sec := s.DurUs / 1e6
		if s.Bytes > 0 {
			peakBWBps = math.Max(peakBWBps, float64(s.Bytes)/sec)
		}
		if s.FLOPs > 0 {
			peakFLOPs = math.Max(peakFLOPs, s.FLOPs/sec)
		}
	}
	return
}

// parallelKernelClasses are the span classes the engine's worker pool
// actually splits across goroutines; everything else is serial.
var parallelKernelClasses = []string{"gemm*", "conv*", "im2col", "col2im"}

// applyTime runs the scenario's time transformations over every node's
// self time, in the documented order.
func applyTime(g *graph, t *Trace, sc *Scenario, peakBWBps, peakFLOPs float64) {
	// batch: compute phases scale with the per-step sample count.
	batchRatio := 1.0
	if sc.Batch > 0 {
		if t.Meta.Batch <= 0 {
			g.notes = append(g.notes, "batch clause ignored: trace meta records no baseline batch size")
		} else {
			batchRatio = float64(sc.Batch) / float64(t.Meta.Batch)
			g.notes = append(g.notes, fmt.Sprintf("batch model: forward/loss/backward work scales by %.3gx; optimizer, comm, and untraced step residue held constant", batchRatio))
		}
	}
	oldPar := t.Meta.Parallel
	if oldPar <= 0 {
		oldPar = 1
	}
	if sc.Parallel > 0 && sc.Parallel != oldPar {
		g.notes = append(g.notes, fmt.Sprintf("parallel model: ideal %d -> %d worker scaling on %s", oldPar, sc.Parallel, strings.Join(parallelKernelClasses, ", ")))
	}
	if sc.FP16 && peakBWBps <= 0 {
		g.notes = append(g.notes, "fp16 time model inert: trace has no byte-attributed spans to calibrate bandwidth")
	}

	commNote := false
	for i := range g.nodes {
		n := &g.nodes[i]
		s := n.s

		// 1. batch rescaling of the compute phases.
		if batchRatio != 1 && scalesWithBatch(s) {
			n.newSelfUs *= batchRatio
			n.effFLOPs *= batchRatio
			n.effBytes *= batchRatio
		}

		// 2. analytical kernel model: replace matching spans' self time
		// with FLOPs at the given rate.
		for _, km := range sc.KernelModels {
			if n.effFLOPs > 0 && len(n.children) == 0 && matchClass(km.Glob, s.Name) {
				n.newSelfUs = n.effFLOPs / (km.Factor * 1e9) * 1e6
			}
		}

		// 3. measured speedups, roofline-decomposed: a faster micro-kernel
		// accelerates the compute-bound share of the span, but its memory
		// traffic still moves at the machine's demonstrated bandwidth, so
		// the memory-time floor (bytes at the trace-calibrated peak) is
		// held invariant. Spans with no byte attribution scale wholesale.
		for _, sp := range sc.Speedups {
			if !matchClass(sp.Glob, s.Name) {
				continue
			}
			tMemUs := 0.0
			if n.effBytes > 0 && peakBWBps > 0 {
				tMemUs = math.Min(n.newSelfUs, n.effBytes/peakBWBps*1e6)
			}
			n.newSelfUs = tMemUs + (n.newSelfUs-tMemUs)/sp.Factor
		}

		// 4. engine parallelism on the parallel kernel classes.
		if sc.Parallel > 0 && sc.Parallel != oldPar && s.Cat == "kernel" {
			for _, class := range parallelKernelClasses {
				if matchClass(class, s.Name) {
					n.newSelfUs *= float64(oldPar) / float64(sc.Parallel)
					break
				}
			}
		}

		// 5. fp16 storage: the memory-bound share of each kernel span
		// halves (roofline blend against trace-calibrated peaks).
		if sc.FP16 && s.Cat == "kernel" && n.effBytes > 0 && peakBWBps > 0 {
			tMem := n.effBytes / peakBWBps
			tCompute := 0.0
			if peakFLOPs > 0 {
				tCompute = n.effFLOPs / peakFLOPs
			}
			if tot := tMem + tCompute; tot > 0 {
				memFrac := tMem / tot
				n.newSelfUs *= 1 - memFrac/2
			}
		}

		// 6. epilogue fusion. The engine records fused epilogues as
		// gemm.bias_act; splitting them re-adds two passes (bias, then
		// activation) over the output, each a read+write sweep priced at
		// the calibrated bandwidth. The output share of a GEMM's traffic
		// is estimated at one third (A, B, and C move comparable volumes).
		if sc.Fused != nil && s.Name == "gemm.bias_act" && peakBWBps > 0 {
			if !*sc.Fused {
				outBytes := n.effBytes / 3
				n.newSelfUs += 4 * outBytes / peakBWBps * 1e6
			}
			// Fusing an already-fused trace is a no-op (noted once below).
		}

		// 7. network: bandwidth and wire-encoding changes on comm spans.
		if s.Cat == "comm" && (sc.BandwidthMBps != 0 || sc.Compression != "") {
			n.newSelfUs = replayComm(t, sc, s, n.newSelfUs)
			commNote = true
		}
	}
	if sc.Fused != nil && *sc.Fused {
		g.notes = append(g.notes, "trace already records fused epilogues; fused=on is a no-op")
	}
	if commNote {
		g.notes = append(g.notes, commModelNote(t, sc))
	}
}

// applyDrop is the remove transformation: a span whose path over parent
// edges matches a drop glob loses its self time and its descendants'. Its
// siblings keep theirs and the parent its own residue, so what depended on
// the span now follows whatever preceded it. Runs last, so no earlier
// clause can price a removed span back in.
func applyDrop(g *graph, sc *Scenario) {
	if len(sc.Drops) == 0 {
		return
	}
	var drop func(i int)
	drop = func(i int) {
		g.nodes[i].newSelfUs = 0
		for _, c := range g.nodes[i].children {
			drop(c)
		}
	}
	matched := 0
	var walk func(i int, prefix string)
	walk = func(i int, prefix string) {
		p := prefix + g.nodes[i].s.Name
		for _, glob := range sc.Drops {
			if matchClass(glob, p) {
				matched++
				drop(i)
				return
			}
		}
		for _, c := range g.nodes[i].children {
			walk(c, p+"/")
		}
	}
	for i := range g.nodes {
		if g.nodes[i].s.Parent == 0 {
			walk(i, "")
		}
	}
	g.notes = append(g.notes, fmt.Sprintf("drop model: %d spans removed with their subtrees; the buffers they wrote and the cache lines they evicted are not modelled", matched))
}

// scalesWithBatch reports whether a span's work is proportional to the
// per-step sample count: everything inside the forward, loss, and
// backward phases (and those phase spans' own residue). The optimizer
// touches weights, not samples; comm volume is gradient-sized.
func scalesWithBatch(s *Span) bool {
	if s.Cat == "comm" || s.Cat == "optim" {
		return false
	}
	switch s.Name {
	case "phase.forward", "phase.loss", "phase.backward":
		return true
	}
	switch s.Phase {
	case "phase.forward", "phase.loss", "phase.backward":
		return true
	}
	return false
}

// wireBytesPerElem mirrors dist.Compression's wire encoding (4-byte
// fp32, 2-byte fp16, 1-byte int8 payloads). Kept as a local table so the
// package does not import internal/dist (dist imports whatif to attach
// traces to worker results).
var wireBytesPerElem = map[string]float64{"full": 4, "fp16": 2, "int8": 1}

// commBlend returns the bytes-per-scalar a full gradient exchange costs
// under an encoding: one compressed hop (reduce-scatter / push) plus one
// fp32 hop (all-gather / weight pull), so full->fp16 shrinks wire volume
// by (2+4)/(4+4) = 0.75, not 0.5.
func commBlend(compression string) float64 {
	c, ok := wireBytesPerElem[compression]
	if !ok {
		c = 4
	}
	return c + 4
}

// replayComm prices one comm span under a new bandwidth or encoding.
// The recorded duration splits into wire time (volume / link bandwidth,
// capped by the observed duration) and overhead (framing, reduction
// arithmetic, peer waits); only wire time rescales.
func replayComm(t *Trace, sc *Scenario, s *Span, selfUs float64) float64 {
	shareBytes := float64(s.Bytes)
	if strings.HasPrefix(s.Name, "comm.ring") {
		// In+out are concurrent on a ring hop; the serial wire time is
		// one direction's volume.
		shareBytes /= 2
	}
	if strings.HasPrefix(s.Name, "comm.ps") && t.Meta.Workers > 1 {
		// A synchronous parameter-server round funnels every rank's
		// push+pull through the server's single NIC, and ranked pushes
		// serialize the round — so each rank's roundtrip span covers the
		// whole cluster's wire volume, not just its own.
		shareBytes *= float64(t.Meta.Workers)
	}
	byteRatio := 1.0
	if sc.Compression != "" {
		oldC := t.Meta.Compression
		if oldC == "" {
			oldC = "full"
		}
		byteRatio = commBlend(sc.Compression) / commBlend(oldC)
	}
	oldBWBps := t.Meta.BandwidthMBps * 1e6
	newBWBps := oldBWBps
	if sc.BandwidthMBps > 0 {
		newBWBps = sc.BandwidthMBps * 1e6
	} else if sc.BandwidthMBps < 0 {
		newBWBps = math.Inf(1)
	}
	selfSec := selfUs / 1e6
	if oldBWBps > 0 {
		wireOld := math.Min(selfSec, shareBytes/oldBWBps)
		overhead := selfSec - wireOld
		wireNew := 0.0
		if !math.IsInf(newBWBps, 1) {
			wireNew = shareBytes * byteRatio / newBWBps
		}
		return (overhead + wireNew) * 1e6
	}
	// Unthrottled recording: the whole span is treated as wire time at
	// its achieved bandwidth, and a throttle below that slows it down.
	if selfSec <= 0 || shareBytes <= 0 {
		return selfUs
	}
	effBW := shareBytes / selfSec
	target := effBW
	if newBWBps > 0 && !math.IsInf(newBWBps, 1) && newBWBps < effBW {
		target = newBWBps
	}
	return shareBytes * byteRatio / target * 1e6
}

// commModelNote documents the comm model's assumptions for the report.
func commModelNote(t *Trace, sc *Scenario) string {
	var b strings.Builder
	b.WriteString("comm model: wire time = volume/bandwidth (ring counts one direction; hops overlap; ps rounds serialize all ranks through the server NIC), non-wire overhead held constant")
	if t.Meta.BandwidthMBps <= 0 {
		b.WriteString("; baseline was unthrottled, so comm spans are priced at their achieved loopback bandwidth")
	}
	if sc.Compression != "" {
		b.WriteString("; encoding change rescales only the compressed hop (the return hop stays fp32)")
	}
	return b.String()
}

// applyMemory computes the predicted watermark and returns the extra
// PCIe microseconds per step an offload scenario charges.
func applyMemory(p *Prediction, t *Trace, sc *Scenario) float64 {
	m := &p.MemAfter
	if sc.Batch > 0 && t.Meta.Batch > 0 {
		r := float64(sc.Batch) / float64(t.Meta.Batch)
		m.FeatureMaps = int64(float64(m.FeatureMaps) * r)
		m.Workspace = int64(float64(m.Workspace) * r)
	}
	if sc.FP16 {
		// fp16 storage halves the weight copies and the pack scratch;
		// gradients and optimizer state stay fp32 (master weights).
		m.Weights /= 2
		m.Workspace /= 2
	}
	recomputePeak(p)
	var transferUs float64
	if sc.OffloadTargetBytes > 0 {
		excess := m.PeakTotal - sc.OffloadTargetBytes
		if excess > 0 {
			moved := excess
			if moved > m.FeatureMaps {
				moved = m.FeatureMaps
			}
			m.FeatureMaps -= moved
			recomputePeak(p)
			transferUs = 2 * device.PCIe3.TransferTime(moved) * 1e6
			if m.PeakTotal > sc.OffloadTargetBytes {
				p.Notes = append(p.Notes, fmt.Sprintf("offload target %.2f MB unreachable: only feature maps offload; floor is %.2f MB", float64(sc.OffloadTargetBytes)/(1<<20), float64(m.PeakTotal)/(1<<20)))
			}
		}
	}
	return transferUs
}

// recomputePeak shifts PeakTotal by the category deltas — the categories
// peaked together in the recording, so their sum tracks the footprint.
func recomputePeak(p *Prediction) {
	sum := func(m prof.MemWatermark) int64 {
		return m.Weights + m.WeightGradients + m.FeatureMaps + m.Workspace + m.Dynamic
	}
	p.MemAfter.PeakTotal = p.MemBefore.PeakTotal + (sum(p.MemAfter) - sum(p.MemBefore))
	if p.MemAfter.PeakTotal < 0 {
		p.MemAfter.PeakTotal = 0
	}
}

// Delta is one aggregated predicted-vs-baseline row (a phase or a
// kernel class).
type Delta struct {
	Name        string  `json:"name"`
	Cat         string  `json:"cat"`
	Count       int     `json:"count"`
	BaselineUs  float64 `json:"baseline_us"`
	PredictedUs float64 `json:"predicted_us"`
}

// Prediction is the replay result: wall/step/per-phase/per-kernel time
// deltas, the memory watermark before and after, and the model's
// assumption notes.
type Prediction struct {
	Scenario        string            `json:"scenario"`
	Transforms      []string          `json:"transforms"`
	Steps           int               `json:"steps"`
	BaselineWallUs  float64           `json:"baseline_wall_us"`
	PredictedWallUs float64           `json:"predicted_wall_us"`
	BaselineStepUs  float64           `json:"baseline_step_us"`
	PredictedStepUs float64           `json:"predicted_step_us"`
	Phases          []Delta           `json:"phases"`
	Kernels         []Delta           `json:"kernels"`
	MemBefore       prof.MemWatermark `json:"mem_before"`
	MemAfter        prof.MemWatermark `json:"mem_after"`
	Notes           []string          `json:"notes,omitempty"`
}

// aggregate groups spans by name and sums baseline vs predicted
// durations. bySelf aggregates leaf work only for kernel rows (a comm
// span nested under a phase would otherwise double-count).
func aggregate(g *graph, newDur []float64, keep func(*Span) bool, leavesOnly bool) []Delta {
	idx := map[string]int{}
	var out []Delta
	for i, n := range g.nodes {
		if !keep(n.s) || (leavesOnly && len(n.children) > 0) {
			continue
		}
		j, ok := idx[n.s.Name]
		if !ok {
			j = len(out)
			idx[n.s.Name] = j
			out = append(out, Delta{Name: n.s.Name, Cat: n.s.Cat})
		}
		out[j].Count++
		out[j].BaselineUs += n.s.DurUs
		out[j].PredictedUs += newDur[i]
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].BaselineUs != out[j].BaselineUs {
			return out[i].BaselineUs > out[j].BaselineUs
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// StepSpeedup is predicted-over-baseline step acceleration (>1 means
// the scenario is faster).
func (p *Prediction) StepSpeedup() float64 {
	if p.PredictedStepUs <= 0 {
		return 0
	}
	return p.BaselineStepUs / p.PredictedStepUs
}

// Table renders the per-phase deltas.
func (p *Prediction) Table() *report.Table {
	t := &report.Table{
		Title:   "What-if prediction by phase",
		Columns: []string{"Phase", "Cat", "Count", "Baseline ms", "Predicted ms", "Delta %"},
	}
	for _, d := range p.Phases {
		t.AddRow(d.Name, d.Cat, d.Count, d.BaselineUs/1e3, d.PredictedUs/1e3, pctDelta(d.BaselineUs, d.PredictedUs))
	}
	return t
}

// KernelTable renders the per-kernel deltas (topK <= 0 keeps all rows).
func (p *Prediction) KernelTable(topK int) *report.Table {
	t := &report.Table{
		Title:   "What-if prediction by kernel",
		Columns: []string{"Kernel", "Cat", "Count", "Baseline ms", "Predicted ms", "Delta %"},
	}
	rows := p.Kernels
	if topK > 0 && len(rows) > topK {
		rows = rows[:topK]
	}
	for _, d := range rows {
		t.AddRow(d.Name, d.Cat, d.Count, d.BaselineUs/1e3, d.PredictedUs/1e3, pctDelta(d.BaselineUs, d.PredictedUs))
	}
	return t
}

// MemTable renders the watermark transformation.
func (p *Prediction) MemTable() *report.Table {
	t := &report.Table{
		Title:   "What-if memory watermark",
		Columns: []string{"Category", "Baseline MB", "Predicted MB", "Delta %"},
	}
	mb := func(v int64) float64 { return float64(v) / (1 << 20) }
	row := func(name string, a, b int64) {
		t.AddRow(name, mb(a), mb(b), pctDelta(float64(a), float64(b)))
	}
	row("feature maps", p.MemBefore.FeatureMaps, p.MemAfter.FeatureMaps)
	row("weights", p.MemBefore.Weights, p.MemAfter.Weights)
	row("gradients", p.MemBefore.WeightGradients, p.MemAfter.WeightGradients)
	row("workspace", p.MemBefore.Workspace, p.MemAfter.Workspace)
	row("dynamic", p.MemBefore.Dynamic, p.MemAfter.Dynamic)
	row("peak total", p.MemBefore.PeakTotal, p.MemAfter.PeakTotal)
	return t
}

// WriteJSON emits the full prediction as indented JSON.
func (p *Prediction) WriteJSON(w io.Writer) error {
	return writeJSON(w, p)
}

func pctDelta(base, pred float64) string {
	if base <= 0 {
		return "-"
	}
	return fmt.Sprintf("%+.1f%%", 100*(pred-base)/base)
}
