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
func Benchmarks() []BenchmarkInfo { return benchmarkInfos(models.Suite()) }

// ExtensionBenchmarks lists models beyond the paper's eight — additions
// the paper names as future work (currently YOLO9000). They are usable
// with every profiling API but excluded from the paper-artifact
// experiments.
func ExtensionBenchmarks() []BenchmarkInfo { return benchmarkInfos(models.Extensions()) }

func benchmarkInfos(ms []*models.Model) []BenchmarkInfo {
	var out []BenchmarkInfo
	for _, m := range ms {
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

// The analysis results are the toolchain's own types, named here so a
// downstream user can declare them.
type (
	// KernelStat is one row of the per-kernel analysis (Tables 5-6):
	// Util is the kernel's FP32 utilization while resident, DurationShare
	// its fraction of GPU busy time.
	KernelStat = sim.KernelStat
	// PhaseBreakdown is per-phase GPU time of one training iteration.
	PhaseBreakdown = sim.PhaseProfile
	// ScalingResult is one row of the Figure 10 study; CommSec is the
	// exposed communication time.
	ScalingResult = sim.ScaleResult
	// WorkspaceTradeoffRow is one point of the workspace-budget sweep.
	WorkspaceTradeoffRow = core.TradeoffRow
	// ObservationStatus reports one of the paper's 13 findings against
	// the simulated suite.
	ObservationStatus = core.ObservationResult
	// MemoryConsumer is one op's memory contribution.
	MemoryConsumer = whatif.Consumer
	// OffloadAnalysis is a vDNN-style what-if: offload the largest
	// feature maps to host memory until the footprint fits a target.
	OffloadAnalysis = whatif.OffloadPlan
	// Analysis is the merged end-to-end report of the paper's Figure 3
	// pipeline for one configuration: sampling-window methodology, all
	// four utilization metrics, phase and kernel breakdowns, and the
	// memory categorization.
	Analysis = core.Analysis
	// Comparability is the §3.4.1 cross-framework implementation check.
	Comparability = core.Comparability
	// TwinRun is the learning curve of one benchmark's trainable numeric
	// twin — real training on the synthetic stand-in dataset, the
	// mechanism behind the Figure 2 convergence curves.
	TwinRun = core.TwinRun
	// TwinPoint is one sample of a numeric twin's learning curve.
	TwinPoint = core.TwinPoint
)

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
	if n < 0 {
		return nil, fmt.Errorf("LowUtilizationKernels: kernel count must be non-negative, got %d", n)
	}
	m, f, g, err := core.Resolve(model, fw, gpu, batch)
	if err != nil {
		return nil, err
	}
	cfg := models.SimConfigFor(m, f, g)
	r := sim.Simulate(m.Ops(), m.SamplesForBatch(batch), f.Style, cfg)
	return sim.LongLowUtilKernels(r, n), nil
}

// ProfileMemory returns the per-category GPU memory footprint of a
// configuration (Figure 9).
func ProfileMemory(model, fw string, batch int) (prof.MemBreakdown, error) {
	m, f, _, err := core.Resolve(model, fw, "", batch)
	if err != nil {
		return prof.MemBreakdown{}, err
	}
	return memprof.ProfileOps(m.Ops(), m.SamplesForBatch(batch), f.MemPolicy), nil
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
			out = append(out, sim.Scale(m.Ops(), b, f.Style, cfg, cluster))
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

// WorkspaceTradeoff quantifies Observation 12's recommendation: sweep
// workspace budgets, letting the convolution-algorithm selector trade
// scratch memory for throughput.
func WorkspaceTradeoff(model, fw string, batch int, budgets []int64) ([]WorkspaceTradeoffRow, error) {
	return core.WorkspaceTradeoff(model, fw, batch, budgets)
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

// CheckObservations evaluates Observations 1-13.
func CheckObservations() []ObservationStatus { return core.CheckAll(core.Options{}) }

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

// ProfilePhases breaks a configuration's iteration into forward /
// backward / update GPU time.
func ProfilePhases(model, fw, gpu string, batch int) (PhaseBreakdown, error) {
	m, f, g, err := core.Resolve(model, fw, gpu, batch)
	if err != nil {
		return PhaseBreakdown{}, err
	}
	cfg := models.SimConfigFor(m, f, g)
	return sim.Simulate(m.Ops(), m.SamplesForBatch(batch), f.Style, cfg).Phases, nil
}

// TopMemoryConsumers returns the n ops holding the most feature-map
// memory at the given batch.
func TopMemoryConsumers(model string, batch, n int) ([]MemoryConsumer, error) {
	if n < 0 {
		return nil, fmt.Errorf("TopMemoryConsumers: consumer count must be non-negative, got %d", n)
	}
	m, err := models.LookupAny(model)
	if err != nil {
		return nil, err
	}
	return whatif.TopConsumers(m.Ops(), m.SamplesForBatch(batch), n), nil
}

// AnalyzeOffload plans feature-map offloading for a configuration so its
// footprint fits targetBytes — quantifying the paper's recommendation
// that memory optimization target feature maps.
func AnalyzeOffload(model, fw string, batch int, targetBytes int64) (OffloadAnalysis, error) {
	m, f, _, err := core.Resolve(model, fw, "", batch)
	if err != nil {
		return OffloadAnalysis{}, err
	}
	return whatif.PlanOffload(m.Ops(), m.SamplesForBatch(batch), f.MemPolicy, targetBytes, device.PCIe3), nil
}

// Analyze runs the complete analysis pipeline (Figure 3) for one
// configuration.
func Analyze(model, fw, gpu string, batch int) (*Analysis, error) {
	return core.AnalyzeEndToEnd(model, fw, gpu, batch)
}

// CheckComparability verifies a benchmark defines the same network on
// every framework it supports.
func CheckComparability(model string) (Comparability, error) {
	return core.CheckComparability(model)
}

// TrainTwin trains the numeric twin of a benchmark for steps updates and
// returns its learning curve. All eight suite models (and YOLO9000) are
// supported.
func TrainTwin(model string, steps int, seed uint64) (TwinRun, error) {
	return core.TrainTwin(model, steps, seed)
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
