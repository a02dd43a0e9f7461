// Package sim is the discrete-event execution simulator that replays a
// model's per-iteration kernel stream on a modeled GPU and host CPU,
// producing the metrics the paper's toolchain measures: iteration time,
// training throughput, GPU compute utilization (Eq. 1), FP32 utilization
// (Eq. 2) and CPU utilization (Eq. 3) as package metrics defines them, and
// per-kernel aggregates for the low-utilization kernel tables (Tables 5
// and 6).
//
// The execution model is one schedule (internal/sched) of tasks on three
// serial lanes. The host dispatch thread launches kernels in order; the
// GPU runs each once its launch has ended. A kernel marked Sync makes the
// host wait for the GPU's previous kernel first (the per-timestep control
// flow of unfused RNN loops), which keeps LSTM models from saturating the
// GPU. The input pipeline's threads run on a lane of their own.
//
// cluster.go scales one simulated iteration across GPUs and machines
// (Cluster, Scale), the data-parallel study of Figure 10, on the exchange
// schedule (internal/exchange) the what-if predictor runs too.
package sim

import (
	"fmt"
	"math"
	"sort"
	"time"

	"tbd/internal/device"
	"tbd/internal/kernels"
	"tbd/internal/metrics"
	"tbd/internal/prof"
	"tbd/internal/sched"
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

	// Phases splits GPU busy time over the three training passes; the
	// input transfer belongs to none of them.
	Phases PhaseProfile
	// GapSec is the GPU's idle time between consecutive kernels: the
	// host-side stalls (sync points, launch starvation) of Observation 5.
	GapSec float64

	// PerKernel is ordered by TotalSec, longest first, ties by name.
	PerKernel []KernelStat
}

// Simulate replays one training iteration of the given op graph at the
// given batch size under cfg.
func Simulate(ops []*kernels.Op, batch int, style kernels.NameStyle, cfg Config) Result {
	return Replay(Stream(ops, batch, style, cfg), batch, cfg, nil)
}

// Stream is the kernel stream of one iteration: the input transfer when
// cfg.SampleBytes is set, then the forward, backward and update passes.
func Stream(ops []*kernels.Op, batch int, style kernels.NameStyle, cfg Config) []kernels.Kernel {
	var stream []kernels.Kernel
	if cfg.SampleBytes > 0 {
		stream = append(stream, kernels.InputTransfer(batch, cfg.SampleBytes))
	}
	return append(stream, kernels.IterationKernels(ops, batch, style)...)
}

// Replay schedules an explicit kernel stream on three lanes (the host
// dispatch thread, the GPU stream and the input pipeline's threads) and
// reads the iteration off that one schedule. When rec is non-nil, it also
// records the iteration into it on the simulated clock, the analogue of
// an nvprof capture: a "step" span over the GPU timeline, a phase span
// ("phase.forward", ...) over each run of one pass's kernels, and one
// kernel span per launch carrying its FLOPs and bytes (the input transfer
// sits directly under the step). rec's wall is the iteration time, so the
// host time outside the GPU timeline is the capture's unattributed time,
// and the step's and phases' self time is GapSec.
func Replay(stream []kernels.Kernel, batch int, cfg Config, rec *prof.Capture) Result {
	if batch <= 0 {
		panic(fmt.Sprintf("sim: non-positive batch %d", batch))
	}
	cfg = cfg.withDefaults()
	const hostLane, gpuLane, pipelineLane, lanes = 0, 1, 2, 3
	var (
		busy, flops, gap float64
		cpuBusy          = cfg.IterOverheadSec
		phases           PhaseProfile
		spans            recorder
		perKernel        []KernelStat
		seen             = make(map[string]int)     // name -> index in perKernel
		kernel           = make([]int, len(stream)) // each kernel's task
		gpuLast          []int                      // the GPU lane's latest task, as a dependency
	)
	// The input pipeline runs on separate host threads, overlapped with
	// compute; it bounds iteration time when slower (Observation 13's
	// single-machine analogue), and always contributes to CPU busy time.
	pipeline := cfg.HostCPUSecPerSample * float64(batch)
	tasks := []sched.Task{{Lane: pipelineLane, Dur: pipeline / float64(cfg.PipelineWorkers)}}
	if len(stream) > 0 {
		// The head delays the first launch; an empty stream has none.
		tasks = append(tasks, sched.Task{Lane: hostLane, Dur: cfg.IterOverheadSec / 2})
	}
	for i, k := range stream {
		if k.Sync {
			// Host must observe device completion before this step.
			tasks = append(tasks, sched.Task{Lane: hostLane, Dur: cfg.SyncOverheadSec, Deps: gpuLast})
			cpuBusy += cfg.SyncOverheadSec
		}
		tasks = append(tasks, sched.Task{Lane: hostLane, Dur: cfg.LaunchOverheadSec})
		cpuBusy += cfg.LaunchOverheadSec
		dur := k.Duration(cfg.GPU) / cfg.SpeedFactor
		kernel[i] = len(tasks)
		tasks = append(tasks, sched.Task{Lane: gpuLane, Dur: dur, Deps: []int{kernel[i] - 1}})
		gpuLast = kernel[i : i+1]
		busy += dur
		flops += k.FLOPs
		phases.add(k.Phase, dur)
		if _, ok := seen[k.Name]; !ok {
			seen[k.Name] = len(perKernel)
			perKernel = append(perKernel, KernelStat{Name: k.Name, Class: k.Class})
		}
		st := &perKernel[seen[k.Name]]
		st.Count++
		st.TotalSec += dur
		st.FLOPs += k.FLOPs
	}
	tasks = append(tasks, sched.Task{Lane: hostLane, Dur: cfg.IterOverheadSec / 2, Deps: gpuLast})
	cpuBusy += pipeline
	start, end := sched.Run(tasks, lanes)
	iter := max(end[len(end)-1], end[0]) // the tail, or the pipeline when slower
	for i, t := range kernel {
		if i > 0 {
			gap += start[t] - end[kernel[i-1]]
		}
		if rec != nil {
			spans.kernel(stream[i], start[t], end[t])
		}
	}

	peak := cfg.GPU.PeakFLOPS()
	for i := range perKernel {
		st := &perKernel[i]
		st.Util = metrics.FP32Utilization(st.FLOPs, peak, st.TotalSec)
		if busy > 0 {
			st.DurationShare = st.TotalSec / busy
		}
	}
	// Equal totals are common (a conv's dgrad and wgrad, pooling forward
	// and backward), so ties go by name.
	sort.Slice(perKernel, func(i, j int) bool {
		a, b := perKernel[i], perKernel[j]
		if a.TotalSec != b.TotalSec {
			return a.TotalSec > b.TotalSec
		}
		return a.Name < b.Name
	})
	if rec != nil {
		*rec = prof.Capture{Wall: simTime(iter), Records: spans.recs}
	}
	return Result{
		Batch:       batch,
		IterTimeSec: iter,
		GPUBusySec:  busy,
		CPUBusySec:  cpuBusy,
		FLOPs:       flops,
		KernelCount: len(stream),
		Throughput:  float64(batch) / iter,
		GPUUtil:     metrics.GPUUtilization(busy, iter),
		FP32Util:    metrics.FP32Utilization(flops, peak, busy),
		CPUUtil:     metrics.CPUUtilization(cpuBusy, cfg.CPU.Cores, iter),
		Phases:      phases,
		GapSec:      gap,
		PerKernel:   perKernel,
	}
}

// recorder lays Replay's kernels out as span records. recs[0] is the
// step; open indexes the span new kernels nest under (the step, or the
// phase span of the pass running).
type recorder struct {
	recs  []prof.Record
	phase kernels.Phase
	open  int
}

// phaseSpan names each pass's span as the live training step does.
var phaseSpan = [...]string{kernels.PhaseForward: "phase.forward", kernels.PhaseBackward: "phase.backward", kernels.PhaseUpdate: "phase.update"}

// kernel records k's run over [start, end] seconds. Both ends round to
// whole nanoseconds, so consecutive kernels never overlap.
func (r *recorder) kernel(k kernels.Kernel, start, end float64) {
	s, e := simTime(start), simTime(end)
	if len(r.recs) == 0 {
		r.recs = append(r.recs, prof.Record{ID: 1, Name: "step", Cat: prof.CatPhase, Start: s})
	}
	if k.Phase != r.phase {
		r.phase, r.open = k.Phase, 0
		if k.Phase != kernels.NoPhase {
			r.open = len(r.recs)
			r.recs = append(r.recs, prof.Record{ID: uint64(r.open + 1), Parent: 1, Name: phaseSpan[k.Phase], Cat: prof.CatPhase, Start: s})
		}
	}
	r.recs = append(r.recs, prof.Record{ID: uint64(len(r.recs) + 1), Parent: r.recs[r.open].ID, Name: k.Name, Cat: prof.CatKernel,
		Start: s, Dur: e - s, FLOPs: k.FLOPs, Bytes: int64(k.Bytes)})
	r.recs[r.open].Dur = e - r.recs[r.open].Start
	r.recs[0].Dur = e - r.recs[0].Start
}

// simTime converts simulated seconds to the profiler's nanoseconds.
func simTime(sec float64) time.Duration { return time.Duration(math.Round(sec * 1e9)) }

// LongLowUtilKernels returns the top-n kernels by total duration whose
// FP32 utilization is below the iteration average — the paper's Tables 5
// and 6 ("longest kernels with utilization below the average"). It keeps
// PerKernel's order.
func LongLowUtilKernels(r Result, n int) []KernelStat {
	avg := r.FP32Util
	var out []KernelStat
	for _, st := range r.PerKernel {
		if st.Util < avg {
			out = append(out, st)
		}
	}
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
