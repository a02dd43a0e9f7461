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
// Each rank's spans are re-summed as a tree; a cluster trace's exchange
// (ring hops, parameter-server pushes and replies, the server's intake on
// the host's CPUs, and the ranks' waits on one another) is scheduled by
// internal/exchange, the schedule sim.Scale runs Figure 10 on too.
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

// Replay is the prediction engine: it transforms each span's self time
// (the part its children do not cover) according to the scenario and
// re-sums each rank's tree bottom-up. Siblings under one parent ran in
// sequence, so a span's predicted duration is its recorded one plus the
// change in its own self time and in its children's, and the gaps between
// root spans (untraced glue) carry over. On a cluster trace the comm spans
// also move by what the exchange schedule says the scenario changes
// (applyCluster).
//
// The model is deliberately Daydream's: span durations are ground truth
// from a real run; only the deltas are simulated. Anything the trace
// does not attribute is held constant, and every such assumption lands in
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
	newDur := g.resum()
	if applyCluster(g, t, sc, newDur) {
		newDur = g.resum()
	}

	// Wall time per rank: the recorded wall minus what the roots took,
	// plus what they are predicted to take (root-to-root gaps carry over).
	// On a cluster trace the steps already carry the schedule's change, so
	// this is the scenario schedule's last end plus the recorded gaps. The
	// cluster wall is the slowest rank's, before and after.
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

	p.Phases, p.Kernels = aggregate(g)
	for _, tree := range trees {
		p.UnattributedUs += float64(tree.Unattributed) / 1e3
		p.ConcurrentUs += float64(tree.Concurrent) / 1e3
	}
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
// into graph.nodes, effFLOPs/effBytes are its work after batch
// rescaling, which later clauses (kernelmodel, fp16) consume, and dropped
// marks a span drop= removed.
type gnode struct {
	*prof.Node
	base                     int
	durUs, selfUs, newSelfUs float64
	effFLOPs, effBytes       float64
	dropped                  bool
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

// resum re-sums every tree bottom-up: each tree is in pre-order, so
// walking backwards meets every child before its parent. A span keeps its
// recorded duration except for what the scenario changed, so an empty
// scenario predicts the recording back exactly, concurrent children
// included. Dropping a span whose children overlapped would take that
// overlap twice, hence the floor at 0.
func (g *graph) resum() []float64 {
	newDur := make([]float64, len(g.nodes))
	for i := len(g.nodes) - 1; i >= 0; i-- {
		n := &g.nodes[i]
		d := n.durUs + (n.newSelfUs - n.selfUs)
		for _, c := range n.Children {
			d += newDur[n.base+c] - g.nodes[n.base+c].durUs
		}
		newDur[i] = math.Max(d, 0)
	}
	return newDur
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

	for i := range g.nodes {
		n := &g.nodes[i]

		// 1. batch rescaling of the compute phases.
		if batchRatio != 1 && scalesWithBatch(n) {
			n.newSelfUs *= batchRatio
			n.effFLOPs *= batchRatio
			n.effBytes *= batchRatio
		}

		// 2. analytical kernel model: replace matching spans' self time
		// with FLOPs at the given rate. Only kernel spans carry FLOPs, and
		// a kernel's children (a conv's im2col, col2im) carry none, so a
		// span's FLOPs are its self time's work, children or not.
		for _, km := range sc.KernelModels {
			if n.effFLOPs > 0 && matchClass(km.Glob, n.Name) {
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
	}
	if sc.Fused != nil && *sc.Fused {
		g.notes = append(g.notes, "trace already records fused epilogues; fused=on is a no-op")
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
	for r, tree := range trees {
		for i := range tree.Nodes {
			// Pre-order: a parent's verdict is in before its children's.
			n, up := &g.nodes[g.rankBase[r]+i], tree.Nodes[i].Up
			if n.dropped = up >= 0 && g.nodes[g.rankBase[r]+up].dropped; !n.dropped {
				for _, glob := range sc.Drops {
					if matchClass(glob, tree.Path(i)) {
						matched++
						n.dropped = true
						break
					}
				}
			}
			if n.dropped {
				n.newSelfUs = 0
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

// Delta is one table row: the recorded and predicted self time of every
// span under one row key, and how many spans that is.
type Delta struct {
	Name        string  `json:"name"`
	Cat         string  `json:"cat"`
	Count       int     `json:"count"`
	BaselineUs  float64 `json:"baseline_us"`
	PredictedUs float64 `json:"predicted_us"`
}

// Prediction is the replay result: wall/step/per-phase/per-kernel time
// deltas, the memory watermark before and after, and the model's
// assumption notes. Each table sums every span's self time once, so its
// rows + UnattributedUs − ConcurrentUs (prof.Tree's budget, summed over
// ranks and held constant) are the ranks' summed wall in both columns.
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
	UnattributedUs  float64           `json:"unattributed_us"`
	ConcurrentUs    float64           `json:"concurrent_us"`
	MemBefore       prof.MemWatermark `json:"mem_before"`
	MemAfter        prof.MemWatermark `json:"mem_after"`
	Notes           []string          `json:"notes,omitempty"`
}

// aggregate sums every span's recorded and predicted self time under its
// row of each table in one pass, each table sorted by recorded time. The
// phase table keys a phase span by its own name and any other span by
// its parent's row, so by its nearest phase ancestor ("no phase" for a
// root). The kernel table keys a kernel, optimizer, comm or serve span by
// its name and category; a layer's or a phase's self time is what its
// children leave, not work of its own, so each of those is one row.
func aggregate(g *graph) (phases, kernels []Delta) {
	var ph, kr table
	var self [prof.NumCats]int32 // selfRow's row in kr, plus one
	phaseOf := make([]int32, len(g.nodes))
	for i := range g.nodes {
		n := &g.nodes[i]
		switch {
		case n.Cat == prof.CatPhase:
			phaseOf[i] = ph.row(n.Name, n.Cat)
		case n.Up >= 0:
			phaseOf[i] = phaseOf[n.base+n.Up]
		default:
			phaseOf[i] = ph.row("no phase", prof.CatPhase)
		}
		ph.add(phaseOf[i], n)
		if name := selfRow[n.Cat]; name != "" {
			if self[n.Cat] == 0 {
				self[n.Cat] = kr.newRow(name, n.Cat) + 1
			}
			kr.add(self[n.Cat]-1, n)
		} else {
			kr.add(kr.row(n.Name, n.Cat), n)
		}
	}
	return ph.sorted(), kr.sorted()
}

// table is one table's rows and their index by category and name.
type table struct {
	idx  [prof.NumCats]map[string]int32
	rows []Delta
}

// selfRow names the kernel table's one row for each category whose self
// time is what its children leave.
var selfRow = [prof.NumCats]string{prof.CatForward: "layer fwd self", prof.CatBackward: "layer bwd self", prof.CatPhase: "phase self"}

func (t *table) row(name string, cat prof.Cat) int32 {
	j, ok := t.idx[cat][name]
	if !ok {
		if t.idx[cat] == nil {
			t.idx[cat] = map[string]int32{}
		}
		j = t.newRow(name, cat)
		t.idx[cat][name] = j
	}
	return j
}

func (t *table) newRow(name string, cat prof.Cat) int32 {
	t.rows = append(t.rows, Delta{Name: name, Cat: cat.String()})
	return int32(len(t.rows) - 1)
}

func (t *table) add(j int32, n *gnode) {
	d := &t.rows[j]
	d.Count++
	d.BaselineUs += n.selfUs
	d.PredictedUs += n.newSelfUs
}

func (t *table) sorted() []Delta {
	slices.SortFunc(t.rows, func(a, b Delta) int {
		return cmp.Or(cmp.Compare(b.BaselineUs, a.BaselineUs), strings.Compare(a.Name, b.Name))
	})
	return t.rows
}

// StepSpeedup is predicted-over-baseline step acceleration (>1 means
// the scenario is faster).
func (p *Prediction) StepSpeedup() float64 {
	if p.PredictedStepUs <= 0 {
		return 0
	}
	return p.BaselineStepUs / p.PredictedStepUs
}

// Table renders the per-phase self time.
func (p *Prediction) Table() *report.Table {
	return p.deltaTable("What-if self time by phase", "Phase", p.Phases, 0)
}

// KernelTable renders the per-kernel self time (topK <= 0 keeps all rows).
func (p *Prediction) KernelTable(topK int) *report.Table {
	return p.deltaTable("What-if self time by kernel", "Kernel", p.Kernels, topK)
}

// deltaTable renders rows, those past topK folded into one "other" row,
// then the budget rows, so each column sums to the ranks' summed wall.
func (p *Prediction) deltaTable(title, first string, rows []Delta, topK int) *report.Table {
	t := &report.Table{Title: title, Columns: []string{first, "Cat", "Count", "Baseline ms", "Predicted ms", "Delta %"}}
	rows = prof.Fold(rows, topK, Delta{Name: "other", Cat: "-"}, func(o *Delta, d Delta) {
		o.Count, o.BaselineUs, o.PredictedUs = o.Count+d.Count, o.BaselineUs+d.BaselineUs, o.PredictedUs+d.PredictedUs
	})
	for _, d := range rows {
		t.AddRow(d.Name, d.Cat, d.Count, d.BaselineUs/1e3, d.PredictedUs/1e3, pctDelta(d.BaselineUs, d.PredictedUs))
	}
	prof.AddBudget(t, p.UnattributedUs/1e3, p.ConcurrentUs/1e3, 3, 4)
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
