package core

import (
	"fmt"

	"tbd/internal/device"
	"tbd/internal/framework"
	"tbd/internal/kernels"
	"tbd/internal/memprof"
	"tbd/internal/metrics"
	"tbd/internal/models"
	"tbd/internal/prof"
	"tbd/internal/sim"
)

// AnalyzeEndToEnd runs the complete Figure 3 analysis pipeline for one
// training configuration: comparability setup, a warm-up phase excluded
// from collection via the §3.4.2 sampling methodology, metric collection
// from the "tools" (the simulator standing in for nvprof/vTune, the
// memory profiler), and a merged report — the paper's end-to-end
// toolchain as one call.

// Analysis is the merged per-configuration report.
type Analysis struct {
	Model, Implementation, Framework, GPU string
	Batch                                 int

	// Sampling methodology (§3.4.2).
	WarmupIterations  int
	SampledIterations int
	// Iteration-time distribution over the stable window.
	P50IterSec, P95IterSec, IterCV float64

	// Throughput over the stable window (samples or sweep units /s).
	Throughput float64
	// Utilization metrics (Eq. 1-3).
	GPUUtil, FP32Util, CPUUtil float64

	// Phase breakdown.
	Phases sim.PhaseProfile

	// Kernel-level view.
	KernelsPerIteration int
	TopKernels          []sim.KernelStat
	LowUtilKernels      []sim.KernelStat
	GapTimeSec          float64

	// Memory breakdown (Figure 9 categories).
	Memory prof.MemBreakdown
	// FitsP4000 reports whether the footprint fits the paper's 8 GB card.
	FitsP4000 bool
}

// AnalyzeEndToEnd profiles (model, framework, gpu, batch) through the
// full pipeline.
func AnalyzeEndToEnd(modelName, fwName, gpuName string, batch int) (*Analysis, error) {
	m, fw, gpu, err := Resolve(modelName, fwName, gpuName, batch)
	if err != nil {
		return nil, err
	}
	n := m.SamplesForBatch(batch)
	cfg := SimConfigFor(m, fw, gpu)

	// Steady-state iteration profile: one replay gives the utilizations,
	// the phase split and the idle gaps.
	r := sim.Simulate(m.Ops(), n, fw.Style, cfg)

	// Sampling methodology: model a fresh run's warm-up and find the
	// stable window the way the real toolchain does.
	meter := metrics.NewMeter(batch)
	for _, d := range sim.WarmupTrace(r.IterTimeSec, 400) {
		meter.Record(d)
	}
	summary := meter.Summarize(0.10, 200)
	window := summary.Window

	a := &Analysis{
		Model:               m.Name,
		Implementation:      m.ImplName(fw.Name),
		Framework:           fw.Name,
		GPU:                 gpu.Name,
		Batch:               batch,
		WarmupIterations:    window.Start,
		SampledIterations:   window.Count,
		P50IterSec:          summary.P50Sec,
		P95IterSec:          summary.P95Sec,
		IterCV:              summary.CV,
		Throughput:          window.Throughput,
		GPUUtil:             r.GPUUtil,
		FP32Util:            r.FP32Util,
		CPUUtil:             r.CPUUtil,
		Phases:              r.Phases,
		KernelsPerIteration: r.KernelCount,
		TopKernels:          r.PerKernel[:min(5, len(r.PerKernel))],
		LowUtilKernels:      sim.LongLowUtilKernels(r, 5),
		GapTimeSec:          r.GapSec,
		Memory:              memprof.ProfileOps(m.Ops(), n, fw.MemPolicy),
	}
	a.FitsP4000 = memprof.FitsDevice(a.Memory, device.QuadroP4000.MemoryBytes)
	return a, nil
}

// SimConfigFor composes the full simulator configuration for running
// model m on framework fw and GPU gpu: the framework's execution profile
// plus the model's host-side costs and pipeline shape.
func SimConfigFor(m *models.Model, fw *framework.Framework, gpu *device.GPU) sim.Config {
	cfg := fw.SimConfig(gpu, m.HostCPU(fw.Name), m.Speed(fw.Name))
	cfg.IterOverheadSec += m.IterHostOverheadSec
	if m.PipelineWorkers > 0 {
		cfg.PipelineWorkers = m.PipelineWorkers
	}
	cfg.SampleBytes = int64(m.Dataset.SampleElems()) * 4
	return cfg
}

// Resolve looks up one training configuration: a benchmark (suite or
// extension), a framework it has an implementation on, and a GPU (""
// selects the Quadro P4000). Every batch given, in the model's batch
// unit, must be positive.
func Resolve(model, fw, gpu string, batches ...int) (*models.Model, *framework.Framework, *device.GPU, error) {
	for _, b := range batches {
		if b <= 0 {
			return nil, nil, nil, fmt.Errorf("core: batch must be positive, got %d", b)
		}
	}
	m, err := models.LookupAny(model)
	if err != nil {
		return nil, nil, nil, err
	}
	f, err := framework.Lookup(fw)
	if err != nil {
		return nil, nil, nil, err
	}
	if !m.SupportsFramework(f.Name) {
		return nil, nil, nil, fmt.Errorf("core: %s has no %s implementation (Table 2 lists: %v)", m.Name, f.Name, m.Frameworks)
	}
	g := device.QuadroP4000
	if gpu != "" {
		if g, err = device.Lookup(gpu); err != nil {
			return nil, nil, nil, err
		}
	}
	return m, f, g, nil
}

// Comparability verifies §3.4.1: that a model's implementations are
// comparable across frameworks — identical network (same ops, shapes, and
// parameter count) and identical algorithmic FLOPs, differing only in
// execution profile.
type Comparability struct {
	Model string
	// ParamElems is the shared trainable-parameter count.
	ParamElems int64
	// FLOPsPerSample is the shared per-sample training FLOPs.
	FLOPsPerSample float64
	// Comparable is false if any framework pair diverges.
	Comparable bool
	Detail     string
}

// CheckComparability validates one benchmark across its frameworks.
func CheckComparability(modelName string) (Comparability, error) {
	m, err := models.LookupAny(modelName)
	if err != nil {
		return Comparability{}, err
	}
	c := Comparability{Model: m.Name, Comparable: true}
	for _, op := range m.Ops() {
		c.ParamElems += op.ParamElems()
	}
	var baseline float64
	for i, fwName := range m.Frameworks {
		fw, err := framework.Lookup(fwName)
		if err != nil {
			return Comparability{}, err
		}
		fl := kernels.TotalFLOPs(kernels.IterationKernels(m.Ops(), 1, fw.Style))
		if i == 0 {
			baseline = fl
			c.FLOPsPerSample = fl
			continue
		}
		if fl != baseline {
			c.Comparable = false
			c.Detail = fmt.Sprintf("%s emits %.0f FLOPs vs %s's %.0f — implementations diverge",
				fwName, fl, m.Frameworks[0], baseline)
			return c, nil
		}
	}
	c.Detail = fmt.Sprintf("%d framework implementation(s) share the same network: %.2f GFLOPs/sample, %.1fM parameters",
		len(m.Frameworks), c.FLOPsPerSample/1e9, float64(c.ParamElems)/1e6)
	return c, nil
}
