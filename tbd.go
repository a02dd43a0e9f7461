// Package tbd is the public API of the TBD training benchmark — a Go
// reproduction of "TBD: Benchmarking and Analyzing Deep Neural Network
// Training" (Zhu et al., IISWC 2018). It exposes the benchmark suite
// (Table 2), the analysis toolchain (throughput, GPU/FP32/CPU utilization,
// per-kernel tables, memory breakdowns), the hardware and framework
// registries, and a runner that regenerates every table and figure of the
// paper.
//
// The heavy machinery — the pure-Go training engine, the kernel-level GPU
// cost model, the discrete-event simulator, and the distributed-training
// model — lives under internal/; this package is the stable surface a
// downstream user scripts against.
package tbd

import (
	"fmt"
	"io"

	"tbd/internal/core"
	"tbd/internal/device"
	"tbd/internal/framework"
	"tbd/internal/kernels"
	"tbd/internal/memprof"
	"tbd/internal/models"
	"tbd/internal/prof"
	"tbd/internal/sim"
	"tbd/internal/tensor"
	"tbd/internal/whatif"
)

// BenchmarkInfo describes one entry of the suite (Table 2).
type BenchmarkInfo struct {
	Name          string
	Application   string
	NumLayers     int
	DominantLayer string
	Frameworks    []string
	Dataset       string
	// BatchSizes is the mini-batch sweep of the paper's figures, in
	// BatchUnit units.
	BatchSizes []int
	BatchUnit  string
}

// Benchmarks lists the eight TBD models.
func Benchmarks() []BenchmarkInfo {
	var out []BenchmarkInfo
	for _, m := range models.Suite() {
		out = append(out, BenchmarkInfo{
			Name:          m.Name,
			Application:   m.Application,
			NumLayers:     m.NumLayers,
			DominantLayer: m.DominantLayer,
			Frameworks:    append([]string(nil), m.Frameworks...),
			Dataset:       m.Dataset.Name,
			BatchSizes:    append([]int(nil), m.BatchSizes...),
			BatchUnit:     m.BatchUnit,
		})
	}
	return out
}

// ExtensionBenchmarks lists models beyond the paper's eight — additions
// the paper names as future work (currently YOLO9000). They are usable
// with every profiling API but excluded from the paper-artifact
// experiments.
func ExtensionBenchmarks() []BenchmarkInfo {
	var out []BenchmarkInfo
	for _, m := range models.Extensions() {
		out = append(out, BenchmarkInfo{
			Name:          m.Name,
			Application:   m.Application,
			NumLayers:     m.NumLayers,
			DominantLayer: m.DominantLayer,
			Frameworks:    append([]string(nil), m.Frameworks...),
			Dataset:       m.Dataset.Name,
			BatchSizes:    append([]int(nil), m.BatchSizes...),
			BatchUnit:     m.BatchUnit,
		})
	}
	return out
}

// Frameworks lists the supported framework profiles.
func Frameworks() []string {
	var out []string
	for _, f := range framework.All() {
		out = append(out, f.Name)
	}
	return out
}

// GPUs lists the modeled GPUs: the paper's Table 4 devices plus the
// Tesla V100 extension.
func GPUs() []string {
	return []string{device.QuadroP4000.Name, device.TitanXp.Name, device.TeslaV100.Name}
}

// Profile is one profiled training configuration — the per-cell data
// behind Figures 4-8.
type Profile struct {
	Model, Implementation, Framework, GPU string
	Batch                                 int
	BatchUnit                             string

	IterTimeSec float64
	// Throughput is in BatchUnit units per second (samples/s, or
	// tokens/s for the Transformer).
	Throughput float64
	GPUUtil    float64
	FP32Util   float64
	CPUUtil    float64
	// KernelCount is GPU kernel launches per iteration.
	KernelCount int
}

// KernelStat is one row of the per-kernel analysis (Tables 5-6).
type KernelStat struct {
	Name string
	// DurationShare is the fraction of GPU busy time in this kernel.
	DurationShare float64
	// FP32Util is the kernel's utilization while resident.
	FP32Util float64
	Count    int
}

// ProfileTraining simulates one training iteration of a benchmark on a
// framework and GPU at the given batch size, returning the paper's
// metrics.
func ProfileTraining(model, fw, gpu string, batch int) (Profile, error) {
	m, f, g, err := core.Resolve(model, fw, gpu, batch)
	if err != nil {
		return Profile{}, err
	}
	cfg := models.SimConfigFor(m, f, g)
	r := sim.Simulate(m.Ops(), m.SamplesForBatch(batch), f.Style, cfg)
	return Profile{
		Model:          m.Name,
		Implementation: m.ImplName(f.Name),
		Framework:      f.Name,
		GPU:            g.Name,
		Batch:          batch,
		BatchUnit:      m.BatchUnit,
		IterTimeSec:    r.IterTimeSec,
		Throughput:     float64(batch) / r.IterTimeSec,
		GPUUtil:        r.GPUUtil,
		FP32Util:       r.FP32Util,
		CPUUtil:        r.CPUUtil,
		KernelCount:    r.KernelCount,
	}, nil
}

// LowUtilizationKernels returns the top-n longest kernels running below
// the configuration's average FP32 utilization (Tables 5 and 6).
func LowUtilizationKernels(model, fw, gpu string, batch, n int) ([]KernelStat, error) {
	m, f, g, err := core.Resolve(model, fw, gpu, batch)
	if err != nil {
		return nil, err
	}
	cfg := models.SimConfigFor(m, f, g)
	r := sim.Simulate(m.Ops(), m.SamplesForBatch(batch), f.Style, cfg)
	var out []KernelStat
	for _, st := range sim.LongLowUtilKernels(r, n) {
		out = append(out, KernelStat{Name: st.Name, DurationShare: st.DurationShare, FP32Util: st.Util, Count: st.Count})
	}
	return out, nil
}

// MemoryBreakdown is the Figure 9 memory categorization in bytes.
type MemoryBreakdown struct {
	Weights, WeightGradients, FeatureMaps, Workspace, Dynamic int64
}

// Total returns the summed footprint.
func (b MemoryBreakdown) Total() int64 {
	return b.Weights + b.WeightGradients + b.FeatureMaps + b.Workspace + b.Dynamic
}

// FeatureMapShare returns the feature-map fraction (Observation 11).
func (b MemoryBreakdown) FeatureMapShare() float64 {
	if b.Total() == 0 {
		return 0
	}
	return float64(b.FeatureMaps) / float64(b.Total())
}

// ProfileMemory returns the per-category GPU memory footprint of a
// configuration.
func ProfileMemory(model, fw string, batch int) (MemoryBreakdown, error) {
	m, f, _, err := core.Resolve(model, fw, "", batch)
	if err != nil {
		return MemoryBreakdown{}, err
	}
	bd := memprof.ProfileOps(m.Ops(), m.SamplesForBatch(batch), f.MemPolicy)
	return MemoryBreakdown{
		Weights:         bd.Weights,
		WeightGradients: bd.WeightGradients,
		FeatureMaps:     bd.FeatureMaps,
		Workspace:       bd.Workspace,
		Dynamic:         bd.Dynamic,
	}, nil
}

// MaxBatch returns the largest sweep batch of a benchmark whose footprint
// fits in capacityBytes on the given framework.
func MaxBatch(model, fw string, capacityBytes int64) (int, error) {
	m, f, _, err := core.Resolve(model, fw, "")
	if err != nil {
		return 0, err
	}
	best := 0
	for _, b := range m.BatchesFor(fw) {
		bd := memprof.ProfileOps(m.Ops(), m.SamplesForBatch(b), f.MemPolicy)
		if memprof.FitsDevice(bd, capacityBytes) && b > best {
			best = b
		}
	}
	return best, nil
}

// ScalingResult is one row of the Figure 10 study.
type ScalingResult struct {
	Config            string
	PerGPUBatch       int
	Throughput        float64
	ScalingEfficiency float64
	ExposedCommSec    float64
}

// ScalingStudy runs the Figure 10 distributed-training sweep for a model
// and framework across the paper's five cluster configurations.
func ScalingStudy(model, fw string, perGPUBatches []int) ([]ScalingResult, error) {
	m, f, g, err := core.Resolve(model, fw, "", perGPUBatches...)
	if err != nil {
		return nil, err
	}
	cfg := models.SimConfigFor(m, f, g)
	var out []ScalingResult
	for _, cluster := range sim.Figure10Configs() {
		for _, b := range perGPUBatches {
			r := sim.Scale(m.Ops(), b, f.Style, cfg, cluster)
			out = append(out, ScalingResult{
				Config:            cluster.Name,
				PerGPUBatch:       b,
				Throughput:        r.Throughput,
				ScalingEfficiency: r.ScalingEfficiency,
				ExposedCommSec:    r.CommSec,
			})
		}
	}
	return out, nil
}

// SetEngineParallelism sets the numeric engine's worker count for heavy
// kernels (GEMM, convolution, elementwise batches). It returns the
// installed value, clamped to [1, max(NumCPU, 8)]; results are
// bit-identical for any worker count.
func SetEngineParallelism(n int) int { return tensor.SetParallelism(n) }

// SetEnginePooling enables or disables the numeric engine's tensor buffer
// pool (on by default) and reports the previous setting. Disabling is
// useful for allocation-profiling comparisons.
func SetEnginePooling(on bool) bool { return tensor.SetPooling(on) }

// WorkspaceTradeoffRow is one point of the workspace-budget sweep.
type WorkspaceTradeoffRow struct {
	BudgetBytes, WorkspaceBytes                int64
	Throughput                                 float64
	WinogradConvs, PrecompConvs, ImplicitConvs int
}

// WorkspaceTradeoff quantifies Observation 12's recommendation: sweep
// workspace budgets, letting the convolution-algorithm selector trade
// scratch memory for throughput.
func WorkspaceTradeoff(model, fw string, batch int, budgets []int64) ([]WorkspaceTradeoffRow, error) {
	rows, err := core.WorkspaceTradeoff(model, fw, batch, budgets)
	if err != nil {
		return nil, err
	}
	out := make([]WorkspaceTradeoffRow, len(rows))
	for i, r := range rows {
		out[i] = WorkspaceTradeoffRow{
			BudgetBytes: r.BudgetBytes, WorkspaceBytes: r.WorkspaceBytes,
			Throughput:    r.Throughput,
			WinogradConvs: r.WinogradConvs, PrecompConvs: r.PrecompConvs, ImplicitConvs: r.ImplicitConvs,
		}
	}
	return out, nil
}

// ExperimentIDs lists every regenerable table/figure id in paper order.
func ExperimentIDs() []string {
	var out []string
	for _, e := range core.Experiments() {
		out = append(out, e.ID)
	}
	return out
}

// ExperimentTitle returns the display title of an experiment.
func ExperimentTitle(id string) (string, error) {
	e, err := core.Lookup(id)
	if err != nil {
		return "", err
	}
	return e.Title, nil
}

// RunOptions configures RunExperiment.
type RunOptions struct {
	// GPU selects the device under test ("" = Quadro P4000).
	GPU string
	// Seed drives stochastic components (0 = default).
	Seed uint64
	// Fig2Steps shortens the numeric-training curves (0 = full default).
	Fig2Steps int
	// CSV switches output from aligned tables to CSV.
	CSV bool
}

// RunExperiment regenerates one table or figure (by id, e.g. "fig4" or
// "table5") and renders it to w.
func RunExperiment(id string, w io.Writer, opts RunOptions) error {
	e, err := core.Lookup(id)
	if err != nil {
		return err
	}
	o := core.Options{Seed: opts.Seed, Fig2Steps: opts.Fig2Steps}
	if opts.GPU != "" {
		g, err := device.Lookup(opts.GPU)
		if err != nil {
			return err
		}
		o.GPU = g
	}
	res, err := e.Run(o)
	if err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "== %s ==\n", e.Title); err != nil {
		return err
	}
	for _, tbl := range res.Tables {
		if opts.CSV {
			err = tbl.WriteCSV(w)
		} else {
			err = tbl.Render(w)
		}
		if err != nil {
			return err
		}
		fmt.Fprintln(w)
	}
	for _, fig := range res.Figures {
		if opts.CSV {
			err = fig.WriteCSV(w)
		} else {
			err = fig.Render(w)
		}
		if err != nil {
			return err
		}
		fmt.Fprintln(w)
	}
	return nil
}

// ObservationStatus reports one of the paper's 13 findings against the
// simulated suite.
type ObservationStatus struct {
	ID     int
	Claim  string
	Holds  bool
	Detail string
}

// CheckObservations evaluates Observations 1-13.
func CheckObservations() []ObservationStatus {
	var out []ObservationStatus
	for _, r := range core.CheckAll(core.Options{}) {
		out = append(out, ObservationStatus{ID: r.ID, Claim: r.Claim, Holds: r.Holds, Detail: r.Detail})
	}
	return out
}

// IterationFLOPs returns the analytic FLOP count of one training
// iteration of a benchmark at the given batch.
func IterationFLOPs(model string, batch int) (float64, error) {
	m, err := models.LookupAny(model)
	if err != nil {
		return 0, err
	}
	ks := kernels.IterationKernels(m.Ops(), m.SamplesForBatch(batch), kernels.StyleTF)
	return kernels.TotalFLOPs(ks), nil
}

// PhaseBreakdown is per-phase GPU time of one training iteration.
type PhaseBreakdown struct {
	ForwardSec, BackwardSec, UpdateSec             float64
	ForwardKernels, BackwardKernels, UpdateKernels int
}

// ProfilePhases breaks a configuration's iteration into forward /
// backward / update GPU time.
func ProfilePhases(model, fw, gpu string, batch int) (PhaseBreakdown, error) {
	m, f, g, err := core.Resolve(model, fw, gpu, batch)
	if err != nil {
		return PhaseBreakdown{}, err
	}
	cfg := models.SimConfigFor(m, f, g)
	p := sim.Simulate(m.Ops(), m.SamplesForBatch(batch), f.Style, cfg).Phases
	return PhaseBreakdown{
		ForwardSec: p.ForwardSec, BackwardSec: p.BackwardSec, UpdateSec: p.UpdateSec,
		ForwardKernels: p.ForwardKernels, BackwardKernels: p.BackwardKernels, UpdateKernels: p.UpdateKernels,
	}, nil
}

// MemoryConsumer is one op's memory contribution.
type MemoryConsumer struct {
	Op              string
	Layer           string
	FeatureMapBytes int64
	WeightBytes     int64
}

// TopMemoryConsumers returns the n ops holding the most feature-map
// memory at the given batch.
func TopMemoryConsumers(model string, batch, n int) ([]MemoryConsumer, error) {
	m, err := models.LookupAny(model)
	if err != nil {
		return nil, err
	}
	var out []MemoryConsumer
	for _, c := range whatif.TopConsumers(m.Ops(), m.SamplesForBatch(batch), n) {
		out = append(out, MemoryConsumer{
			Op: c.Op, Layer: c.Kind.String(),
			FeatureMapBytes: c.FeatureMapBytes, WeightBytes: c.WeightBytes,
		})
	}
	return out, nil
}

// OffloadAnalysis is a vDNN-style what-if: offload the largest feature
// maps to host memory until the footprint fits a target.
type OffloadAnalysis struct {
	// FreedBytes is GPU memory released.
	FreedBytes int64
	// RemainingBytes is the post-offload GPU footprint.
	RemainingBytes int64
	// TransferSecPerIter is the added PCIe time per iteration.
	TransferSecPerIter float64
	// OffloadedOps lists the moved stashes, largest first.
	OffloadedOps []string
	// Fits reports whether the target was reached.
	Fits bool
}

// AnalyzeOffload plans feature-map offloading for a configuration so its
// footprint fits targetBytes — quantifying the paper's recommendation
// that memory optimization target feature maps.
func AnalyzeOffload(model, fw string, batch int, targetBytes int64) (OffloadAnalysis, error) {
	m, f, _, err := core.Resolve(model, fw, "", batch)
	if err != nil {
		return OffloadAnalysis{}, err
	}
	plan := whatif.PlanOffload(m.Ops(), m.SamplesForBatch(batch), f.MemPolicy, targetBytes, device.PCIe3)
	return OffloadAnalysis{
		FreedBytes:         plan.OffloadedBytes,
		RemainingBytes:     plan.RemainingFootprint,
		TransferSecPerIter: plan.TransferSecPerIter,
		OffloadedOps:       plan.OffloadedOps,
		Fits:               plan.Fits(targetBytes),
	}, nil
}

// Analysis is the merged end-to-end report of the paper's Figure 3
// pipeline for one configuration: sampling-window methodology, all four
// utilization metrics, phase and kernel breakdowns, and the memory
// categorization.
type Analysis struct {
	Model, Implementation, Framework, GPU string
	Batch                                 int
	WarmupIterations, SampledIterations   int
	P50IterSec, P95IterSec, IterCV        float64
	Throughput                            float64
	GPUUtil, FP32Util, CPUUtil            float64
	ForwardSec, BackwardSec, UpdateSec    float64
	KernelsPerIteration                   int
	GapTimeSec                            float64
	Memory                                MemoryBreakdown
	FitsP4000                             bool
	LowUtilKernels                        []KernelStat
}

// Analyze runs the complete analysis pipeline (Figure 3) for one
// configuration.
func Analyze(model, fw, gpu string, batch int) (*Analysis, error) {
	a, err := core.AnalyzeEndToEnd(model, fw, gpu, batch)
	if err != nil {
		return nil, err
	}
	out := &Analysis{
		Model: a.Model, Implementation: a.Implementation, Framework: a.Framework, GPU: a.GPU,
		Batch:            a.Batch,
		WarmupIterations: a.WarmupIterations, SampledIterations: a.SampledIterations,
		P50IterSec: a.P50IterSec, P95IterSec: a.P95IterSec, IterCV: a.IterCV,
		Throughput: a.Throughput,
		GPUUtil:    a.GPUUtil, FP32Util: a.FP32Util, CPUUtil: a.CPUUtil,
		ForwardSec: a.Phases.ForwardSec, BackwardSec: a.Phases.BackwardSec, UpdateSec: a.Phases.UpdateSec,
		KernelsPerIteration: a.KernelsPerIteration,
		GapTimeSec:          a.GapTimeSec,
		Memory: MemoryBreakdown{
			Weights:         a.Memory.Weights,
			WeightGradients: a.Memory.WeightGradients,
			FeatureMaps:     a.Memory.FeatureMaps,
			Workspace:       a.Memory.Workspace,
			Dynamic:         a.Memory.Dynamic,
		},
		FitsP4000: a.FitsP4000,
	}
	for _, k := range a.LowUtilKernels {
		out.LowUtilKernels = append(out.LowUtilKernels, KernelStat{
			Name: k.Name, DurationShare: k.DurationShare, FP32Util: k.Util, Count: k.Count,
		})
	}
	return out, nil
}

// Comparability is the §3.4.1 cross-framework implementation check.
type Comparability struct {
	Model          string
	ParamElems     int64
	FLOPsPerSample float64
	Comparable     bool
	Detail         string
}

// CheckComparability verifies a benchmark defines the same network on
// every framework it supports.
func CheckComparability(model string) (Comparability, error) {
	c, err := core.CheckComparability(model)
	if err != nil {
		return Comparability{}, err
	}
	return Comparability{
		Model: c.Model, ParamElems: c.ParamElems, FLOPsPerSample: c.FLOPsPerSample,
		Comparable: c.Comparable, Detail: c.Detail,
	}, nil
}

// TwinPoint is one sample of a numeric twin's learning curve.
type TwinPoint struct {
	FracDone float64
	Value    float64
}

// TwinRun is the learning curve of one benchmark's trainable numeric
// twin — real training on the synthetic stand-in dataset, the mechanism
// behind the Figure 2 convergence curves.
type TwinRun struct {
	Model          string
	Metric         string
	HigherIsBetter bool
	Points         []TwinPoint
	// Improved reports head-vs-tail progress in the metric's direction.
	Improved bool
}

// TrainTwin trains the numeric twin of a benchmark for steps updates and
// returns its learning curve. All eight suite models (and YOLO9000) are
// supported.
func TrainTwin(model string, steps int, seed uint64) (TwinRun, error) {
	r, err := core.TrainTwin(model, steps, seed)
	if err != nil {
		return TwinRun{}, err
	}
	out := TwinRun{Model: r.Model, Metric: r.Metric, HigherIsBetter: r.HigherIsBetter, Improved: r.Improved()}
	for _, p := range r.Points {
		out.Points = append(out.Points, TwinPoint{FracDone: p.FracDone, Value: p.Value})
	}
	return out, nil
}

// ExportTrace writes one simulated iteration to w as the one trace file
// (Chrome trace-event JSON, which Perfetto opens and the what-if replay
// reads): the step, its forward/backward/update phases and every kernel
// launch, input transfer included, on the simulated clock.
func ExportTrace(model, fw, gpu string, batch int, w io.Writer) error {
	m, f, g, err := core.Resolve(model, fw, gpu, batch)
	if err != nil {
		return err
	}
	n := m.SamplesForBatch(batch)
	cfg := models.SimConfigFor(m, f, g)
	var c prof.Capture
	sim.Replay(sim.Stream(m.Ops(), n, f.Style, cfg), n, cfg, &c)
	t := prof.Trace{Meta: prof.Meta{Model: m.Name, Steps: 1, Batch: n}, Ranks: []prof.Capture{c}}
	return t.Write(w)
}
