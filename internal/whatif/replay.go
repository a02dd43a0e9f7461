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
	"cmp"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"slices"
	"strings"

	"tbd/internal/device"
	"tbd/internal/prof"
	"tbd/internal/report"
)

// Replay is the prediction engine: it walks each rank's span tree,
// transforms each span's self time (the part its children do not cover)
// according to the scenario, and re-sums the tree bottom-up. Sequence
// edges are implicit — siblings under one parent ran sequentially in the
// recording — so a span's predicted duration is its recorded one plus
// the change in its own self time and in its children's durations, and
// the gaps between root spans (untraced glue) carry over unchanged.
//
// The model is deliberately Daydream's: span durations are ground truth
// from a real run; only the deltas are simulated. Anything the trace
// does not attribute (e.g. synthetic-data generation inside a step's
// residue) is held constant, and every such assumption lands in
// Prediction.Notes.
func Replay(t *prof.Trace, sc *Scenario) (*Prediction, error) {
	trees, err := t.Trees()
	if err != nil {
		return nil, err
	}
	g := buildGraph(trees)
	if len(g.nodes) == 0 {
		return nil, fmt.Errorf("whatif: empty trace")
	}
	p := &Prediction{
		Scenario:   sc.Spec,
		Transforms: sc.Describe(),
		MemBefore:  t.Mem,
		MemAfter:   t.Mem,
	}

	// Roofline calibration from the trace itself: the best achieved
	// bandwidth and FLOP rate bound what "memory-bound" means on the
	// machine that produced the recording.
	peakBWBps, peakFLOPs := calibrate(g)

	transferUsPerStep := applyMemory(p, t, sc)
	applyTime(g, t, sc, peakBWBps, peakFLOPs)
	applyDrop(g, trees, sc)

	// Re-sum bottom-up: each tree is in pre-order, so walking backwards
	// meets every child before its parent. A span keeps its recorded
	// duration except for what the scenario changed, so an empty scenario
	// predicts the recording back exactly, concurrent children included.
	// Dropping a span whose children overlapped would take that overlap
	// twice, hence the floor at 0.
	newDur := make([]float64, len(g.nodes))
	for i := len(g.nodes) - 1; i >= 0; i-- {
		n := &g.nodes[i]
		d := n.durUs + (n.newSelfUs - n.selfUs)
		for _, c := range n.Children {
			d += newDur[n.base+c] - g.nodes[n.base+c].durUs
		}
		newDur[i] = math.Max(d, 0)
	}

	// Wall time per rank: the recorded wall minus what the roots took,
	// plus what they are predicted to take (root-to-root gaps carry over).
	// The cluster wall is the slowest rank's, before and after.
	for r, c := range t.Ranks {
		wall := float64(c.Wall) / 1e3
		pred := wall
		for i := g.rankBase[r]; i < g.rankBase[r+1]; i++ {
			n := &g.nodes[i]
			if n.Name == "step" && n.Cat == prof.CatPhase {
				p.Steps++
				p.BaselineStepUs += n.durUs
				p.PredictedStepUs += newDur[i] + transferUsPerStep
				pred += transferUsPerStep
			}
			if n.Up < 0 {
				pred += newDur[i] - n.durUs
			}
		}
		p.BaselineWallUs = math.Max(p.BaselineWallUs, wall)
		p.PredictedWallUs = math.Max(p.PredictedWallUs, pred)
	}
	if p.Steps > 0 {
		p.BaselineStepUs /= float64(p.Steps)
		p.PredictedStepUs /= float64(p.Steps)
	}

	p.Phases = aggregate(g, newDur, func(n *gnode) bool { return n.Cat == prof.CatPhase || n.Cat == prof.CatComm }, false)
	p.Kernels = aggregate(g, newDur, func(n *gnode) bool {
		return n.Cat == prof.CatKernel || n.Cat == prof.CatOptim || n.Cat == prof.CatComm
	}, true)
	if transferUsPerStep > 0 {
		p.Notes = append(p.Notes, fmt.Sprintf("offload adds %.2f ms of PCIe traffic per step (charged to step and wall time)", transferUsPerStep/1e3))
	}
	p.Notes = append(p.Notes, g.notes...)
	return p, nil
}

// graph is every rank's tree laid end to end: one node per span, with
// the scenario's working values beside the recorded ones.
type graph struct {
	nodes []gnode
	// rankBase[r] is where rank r's nodes start; rankBase[len] = len(nodes).
	rankBase []int
	notes    []string
}

// gnode is one span: base offsets its tree-local indices (Children, Up)
// into graph.nodes, and effFLOPs/effBytes are its work after batch
// rescaling, which later clauses (kernelmodel, fp16) consume.
type gnode struct {
	*prof.Node
	base                     int
	durUs, selfUs, newSelfUs float64
	effFLOPs, effBytes       float64
}

func buildGraph(trees []*prof.Tree) *graph {
	g := &graph{}
	for _, tree := range trees {
		base := len(g.nodes)
		g.rankBase = append(g.rankBase, base)
		for i := range tree.Nodes {
			n := &tree.Nodes[i]
			self := float64(n.Self) / 1e3
			g.nodes = append(g.nodes, gnode{
				Node: n, base: base,
				durUs: float64(n.Dur) / 1e3, selfUs: self, newSelfUs: self,
				effFLOPs: n.FLOPs, effBytes: float64(n.Bytes),
			})
		}
	}
	g.rankBase = append(g.rankBase, len(g.nodes))
	return g
}

// calibrate extracts the machine's best achieved memory bandwidth (B/s)
// and FLOP rate (FLOP/s) from the recording, the two roofline anchors
// the fp16 and fused models price memory passes against.
func calibrate(g *graph) (peakBWBps, peakFLOPs float64) {
	for i := range g.nodes {
		s := &g.nodes[i]
		if s.durUs <= 0 {
			continue
		}
		sec := s.durUs / 1e6
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
func applyTime(g *graph, t *prof.Trace, sc *Scenario, peakBWBps, peakFLOPs float64) {
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

		// 1. batch rescaling of the compute phases.
		if batchRatio != 1 && scalesWithBatch(n) {
			n.newSelfUs *= batchRatio
			n.effFLOPs *= batchRatio
			n.effBytes *= batchRatio
		}

		// 2. analytical kernel model: replace matching spans' self time
		// with FLOPs at the given rate.
		for _, km := range sc.KernelModels {
			if n.effFLOPs > 0 && len(n.Children) == 0 && matchClass(km.Glob, n.Name) {
				n.newSelfUs = n.effFLOPs / (km.Factor * 1e9) * 1e6
			}
		}

		// 3. measured speedups, roofline-decomposed: a faster micro-kernel
		// accelerates the compute-bound share of the span, but its memory
		// traffic still moves at the machine's demonstrated bandwidth, so
		// the memory-time floor (bytes at the trace-calibrated peak) is
		// held invariant. Spans with no byte attribution scale wholesale.
		for _, sp := range sc.Speedups {
			if !matchClass(sp.Glob, n.Name) {
				continue
			}
			tMemUs := 0.0
			if n.effBytes > 0 && peakBWBps > 0 {
				tMemUs = math.Min(n.newSelfUs, n.effBytes/peakBWBps*1e6)
			}
			n.newSelfUs = tMemUs + (n.newSelfUs-tMemUs)/sp.Factor
		}

		// 4. engine parallelism on the parallel kernel classes.
		if sc.Parallel > 0 && sc.Parallel != oldPar && n.Cat == prof.CatKernel {
			for _, class := range parallelKernelClasses {
				if matchClass(class, n.Name) {
					n.newSelfUs *= float64(oldPar) / float64(sc.Parallel)
					break
				}
			}
		}

		// 5. fp16 storage: the memory-bound share of each kernel span
		// halves (roofline blend against trace-calibrated peaks).
		if sc.FP16 && n.Cat == prof.CatKernel && n.effBytes > 0 && peakBWBps > 0 {
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
		if sc.Fused != nil && n.Name == "gemm.bias_act" && peakBWBps > 0 {
			if !*sc.Fused {
				outBytes := n.effBytes / 3
				n.newSelfUs += 4 * outBytes / peakBWBps * 1e6
			}
			// Fusing an already-fused trace is a no-op (noted once below).
		}

		// 7. network: bandwidth and wire-encoding changes on comm spans.
		if n.Cat == prof.CatComm && (sc.BandwidthMBps != 0 || sc.Compression != "") {
			n.newSelfUs = replayComm(t, sc, n, n.newSelfUs)
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
func applyDrop(g *graph, trees []*prof.Tree, sc *Scenario) {
	if len(sc.Drops) == 0 {
		return
	}
	matched := 0
	dropped := make([]bool, len(g.nodes))
	for r, tree := range trees {
		for i := range tree.Nodes {
			// Pre-order: a parent's verdict is in before its children's.
			at, up := g.rankBase[r]+i, tree.Nodes[i].Up
			if dropped[at] = up >= 0 && dropped[g.rankBase[r]+up]; !dropped[at] {
				for _, glob := range sc.Drops {
					if matchClass(glob, tree.Path(i)) {
						matched++
						dropped[at] = true
						break
					}
				}
			}
			if dropped[at] {
				g.nodes[at].newSelfUs = 0
			}
		}
	}
	g.notes = append(g.notes, fmt.Sprintf("drop model: %d spans removed with their subtrees; the buffers they wrote and the cache lines they evicted are not modelled", matched))
}

// scalesWithBatch reports whether a span's work is proportional to the
// per-step sample count: everything inside the forward, loss, and
// backward phases (and those phase spans' own residue). The optimizer
// touches weights, not samples; comm volume is gradient-sized.
func scalesWithBatch(s *gnode) bool {
	compute := func(name string) bool {
		return name == "phase.forward" || name == "phase.loss" || name == "phase.backward"
	}
	return s.Cat != prof.CatComm && s.Cat != prof.CatOptim && (compute(s.Name) || compute(s.Phase))
}

// wireBytesPerElem mirrors dist.Compression's wire encoding (4-byte
// fp32, 2-byte fp16, 1-byte int8 payloads). Kept as a local table so the
// predictor does not import the live runtime it models.
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
func replayComm(t *prof.Trace, sc *Scenario, s *gnode, selfUs float64) float64 {
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
func commModelNote(t *prof.Trace, sc *Scenario) string {
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
func applyMemory(p *Prediction, t *prof.Trace, sc *Scenario) float64 {
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
	p.MemAfter.PeakTotal = p.MemBefore.PeakTotal + (p.MemAfter.Total() - p.MemBefore.Total())
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
// durations. leavesOnly keeps kernel rows to leaf work (a comm span
// nested under a phase would otherwise double-count).
func aggregate(g *graph, newDur []float64, keep func(*gnode) bool, leavesOnly bool) []Delta {
	idx := map[string]int{}
	var out []Delta
	for i := range g.nodes {
		n := &g.nodes[i]
		if !keep(n) || (leavesOnly && len(n.Children) > 0) {
			continue
		}
		j, ok := idx[n.Name]
		if !ok {
			j = len(out)
			idx[n.Name] = j
			out = append(out, Delta{Name: n.Name, Cat: n.Cat.String()})
		}
		out[j].Count++
		out[j].BaselineUs += n.durUs
		out[j].PredictedUs += newDur[i]
	}
	slices.SortFunc(out, func(a, b Delta) int {
		return cmp.Or(cmp.Compare(b.BaselineUs, a.BaselineUs), strings.Compare(a.Name, b.Name))
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
	return deltaTable("What-if prediction by phase", "Phase", p.Phases, 0)
}

// KernelTable renders the per-kernel deltas (topK <= 0 keeps all rows).
func (p *Prediction) KernelTable(topK int) *report.Table {
	return deltaTable("What-if prediction by kernel", "Kernel", p.Kernels, topK)
}

func deltaTable(title, first string, rows []Delta, topK int) *report.Table {
	t := &report.Table{Title: title, Columns: []string{first, "Cat", "Count", "Baseline ms", "Predicted ms", "Delta %"}}
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
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(p)
}

func pctDelta(base, pred float64) string {
	if base <= 0 {
		return "-"
	}
	return fmt.Sprintf("%+.1f%%", 100*(pred-base)/base)
}
