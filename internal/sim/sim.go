// Package sim is the discrete-event execution simulator that replays a
// model's per-iteration kernel stream on a modeled GPU and host CPU,
// producing the metrics the paper's toolchain measures: iteration time,
// training throughput, GPU compute utilization (Eq. 1), FP32 utilization
// (Eq. 2), CPU utilization (Eq. 3), and per-kernel aggregates for the
// low-utilization kernel tables (Tables 5 and 6).
//
// The execution model is a two-agent pipeline. The host dispatch thread
// issues kernels in order, paying a per-kernel launch overhead; the GPU
// executes them in order as they arrive. A kernel marked Sync forces the
// host to drain the device before continuing (the per-timestep control
// flow of unfused RNN loops), which is the mechanism that keeps LSTM
// models from saturating the GPU.
//
// cluster.go scales one simulated iteration across GPUs and machines
// (Cluster, Scale): the data-parallel study of Figure 10.
package sim

import (
	"fmt"
	"sort"

	"tbd/internal/device"
	"tbd/internal/kernels"
)

// Config describes one training setup to simulate.
type Config struct {
	// GPU is the device executing kernels.
	GPU *device.GPU
	// CPU is the host processor (defaults to the paper's Xeon E5-2680).
	CPU *device.CPU

	// LaunchOverheadSec is host CPU time to dispatch one kernel
	// (framework op scheduling + cudaLaunch).
	LaunchOverheadSec float64
	// SyncOverheadSec is extra host time paid at each Sync kernel after
	// draining the device.
	SyncOverheadSec float64
	// IterOverheadSec is fixed per-iteration host work (session run
	// setup, feed/fetch, queue management).
	IterOverheadSec float64

	// HostCPUSecPerSample is host-side per-sample work that overlaps with
	// GPU compute: the input pipeline (decode, augment) plus any
	// CPU-resident algorithm stages (A3C environment steps, Faster R-CNN
	// proposal handling).
	HostCPUSecPerSample float64
	// PipelineWorkers is the parallelism of the input pipeline.
	PipelineWorkers int

	// SpeedFactor scales kernel durations for per-framework
	// implementation efficiency (1.0 = baseline).
	SpeedFactor float64

	// SampleBytes, when positive, adds a host-to-device input-copy
	// kernel of batch*SampleBytes per iteration (the data-transfer stage
	// of §2.3).
	SampleBytes int64
}

// withDefaults fills zero fields.
func (c Config) withDefaults() Config {
	if c.CPU == nil {
		c.CPU = device.XeonE52680
	}
	if c.PipelineWorkers == 0 {
		c.PipelineWorkers = 4
	}
	if c.SpeedFactor == 0 {
		c.SpeedFactor = 1
	}
	return c
}

// KernelStat aggregates all launches of one kernel name in an iteration.
type KernelStat struct {
	Name     string
	Class    kernels.Class
	Count    int
	TotalSec float64
	FLOPs    float64
	// Util is the FP32 utilization of this kernel while resident.
	Util float64
	// DurationShare is TotalSec / GPU busy time.
	DurationShare float64
}

// Result is the simulated profile of one training iteration.
type Result struct {
	Batch       int
	IterTimeSec float64
	GPUBusySec  float64
	CPUBusySec  float64
	FLOPs       float64
	KernelCount int

	// Throughput is samples/second (Batch / IterTimeSec).
	Throughput float64
	// GPUUtil is Eq. 1: GPU active time / elapsed time.
	GPUUtil float64
	// FP32Util is Eq. 2: achieved FLOPs / (peak * active time).
	FP32Util float64
	// CPUUtil is Eq. 3: host busy time / (elapsed * cores).
	CPUUtil float64

	PerKernel []KernelStat
}

// Simulate replays one training iteration of the given op graph at the
// given batch size under cfg.
func Simulate(ops []*kernels.Op, batch int, style kernels.NameStyle, cfg Config) Result {
	if batch <= 0 {
		panic(fmt.Sprintf("sim: non-positive batch %d", batch))
	}
	cfg = cfg.withDefaults()
	var stream []kernels.Kernel
	if cfg.SampleBytes > 0 {
		stream = append(stream, kernels.InputTransfer(batch, cfg.SampleBytes))
	}
	stream = append(stream, kernels.IterationKernels(ops, batch, style)...)
	return replay(stream, batch, cfg)
}

// replay runs the two-agent pipeline over an explicit kernel stream.
func replay(stream []kernels.Kernel, batch int, cfg Config) Result {
	cfg = cfg.withDefaults()
	var (
		cpuClock float64 // host dispatch thread position
		gpuFree  float64 // device completion time
		busy     float64
		flops    float64
		cpuBusy  float64
	)
	cpuClock = cfg.IterOverheadSec / 2
	cpuBusy = cfg.IterOverheadSec

	agg := make(map[string]*KernelStat)
	for _, k := range stream {
		if k.Sync {
			// Host must observe device completion before this step.
			if gpuFree > cpuClock {
				cpuClock = gpuFree
			}
			cpuClock += cfg.SyncOverheadSec
			cpuBusy += cfg.SyncOverheadSec
		}
		cpuClock += cfg.LaunchOverheadSec
		cpuBusy += cfg.LaunchOverheadSec
		dur := k.Duration(cfg.GPU) / cfg.SpeedFactor
		start := cpuClock
		if gpuFree > start {
			start = gpuFree
		}
		gpuFree = start + dur
		busy += dur
		flops += k.FLOPs

		st, ok := agg[k.Name]
		if !ok {
			st = &KernelStat{Name: k.Name, Class: k.Class}
			agg[k.Name] = st
		}
		st.Count++
		st.TotalSec += dur
		st.FLOPs += k.FLOPs
	}
	computePath := gpuFree + cfg.IterOverheadSec/2

	// The input pipeline runs on separate host threads, overlapped with
	// compute; it bounds iteration time when slower (Observation 13's
	// single-machine analogue), and always contributes to CPU busy time.
	pipeline := cfg.HostCPUSecPerSample * float64(batch)
	pipelineWall := pipeline / float64(cfg.PipelineWorkers)
	cpuBusy += pipeline

	iter := computePath
	if pipelineWall > iter {
		iter = pipelineWall
	}

	res := Result{
		Batch:       batch,
		IterTimeSec: iter,
		GPUBusySec:  busy,
		CPUBusySec:  cpuBusy,
		FLOPs:       flops,
		KernelCount: len(stream),
		Throughput:  float64(batch) / iter,
		GPUUtil:     busy / iter,
		CPUUtil:     cpuBusy / (iter * float64(cfg.CPU.Cores)),
	}
	if busy > 0 {
		res.FP32Util = flops / (cfg.GPU.PeakFLOPS() * busy)
	}
	if res.GPUUtil > 1 {
		res.GPUUtil = 1
	}
	if res.FP32Util > 1 {
		res.FP32Util = 1
	}
	for _, st := range agg {
		if st.TotalSec > 0 {
			st.Util = st.FLOPs / (cfg.GPU.PeakFLOPS() * st.TotalSec)
		}
		if busy > 0 {
			st.DurationShare = st.TotalSec / busy
		}
		res.PerKernel = append(res.PerKernel, *st)
	}
	sort.Slice(res.PerKernel, func(i, j int) bool {
		return res.PerKernel[i].TotalSec > res.PerKernel[j].TotalSec
	})
	return res
}

// Replay exposes the raw-stream simulator for callers that transform the
// kernel stream first (framework fusion passes, trace capture).
func Replay(stream []kernels.Kernel, batch int, cfg Config) Result {
	return replay(stream, batch, cfg)
}

// Event is one kernel execution on the simulated timeline.
type Event struct {
	Name     string
	Class    kernels.Class
	StartSec float64
	DurSec   float64
	FLOPs    float64
	Sync     bool
}

// ReplayWithTrace is Replay plus a full kernel timeline, the analogue of
// an nvprof .nvvp capture.
func ReplayWithTrace(stream []kernels.Kernel, batch int, cfg Config) (Result, []Event) {
	cfg = cfg.withDefaults()
	events := make([]Event, 0, len(stream))
	var cpuClock, gpuFree float64
	cpuClock = cfg.IterOverheadSec / 2
	for _, k := range stream {
		if k.Sync {
			if gpuFree > cpuClock {
				cpuClock = gpuFree
			}
			cpuClock += cfg.SyncOverheadSec
		}
		cpuClock += cfg.LaunchOverheadSec
		dur := k.Duration(cfg.GPU) / cfg.SpeedFactor
		start := cpuClock
		if gpuFree > start {
			start = gpuFree
		}
		gpuFree = start + dur
		events = append(events, Event{Name: k.Name, Class: k.Class, StartSec: start, DurSec: dur, FLOPs: k.FLOPs, Sync: k.Sync})
	}
	return replay(stream, batch, cfg), events
}

// LongLowUtilKernels returns the top-n kernels by total duration whose
// FP32 utilization is below the iteration average — the paper's Tables 5
// and 6 ("longest kernels with utilization below the average").
func LongLowUtilKernels(r Result, n int) []KernelStat {
	avg := r.FP32Util
	var out []KernelStat
	for _, st := range r.PerKernel {
		if st.Util < avg {
			out = append(out, st)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].TotalSec > out[j].TotalSec })
	if len(out) > n {
		out = out[:n]
	}
	return out
}

// WarmupTrace models the measured shape of a fresh training run
// (§3.4.2): the first iterations pay graph construction, memory-allocator
// growth, and autotuning costs that decay geometrically toward the stable
// iteration time. It returns per-iteration durations for iters iterations.
func WarmupTrace(stable float64, iters int) []float64 {
	out := make([]float64, iters)
	// Warm-up multiplier decays from ~6x to 1x over the first ~10% of
	// iterations, mimicking allocator growth + cuDNN autotuning.
	decay := 0.93
	mult := 6.0
	for i := range out {
		out[i] = stable * (1 + (mult-1)*pow(decay, i))
	}
	return out
}

func pow(b float64, n int) float64 {
	p := 1.0
	for i := 0; i < n; i++ {
		p *= b
	}
	return p
}
