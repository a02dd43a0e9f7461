// Package kernels is the analytic GPU cost model at the core of the TBD
// simulator. Every layer of a paper-scale model is described by an Op;
// each Op emits the forward, backward, and weight-update kernels a real
// framework would launch (with cuDNN/cuBLAS-style names, so the paper's
// Tables 5 and 6 can be regenerated). A Kernel carries its FLOP count and
// memory traffic; Duration applies a roofline model with per-class
// efficiency and an occupancy ramp, which is what makes small kernels
// (RNN timesteps) slow per-FLOP and batch-norm kernels memory-bound —
// the paper's Observations 5, 7, and 8.
package kernels

import (
	"fmt"
	"math"

	"tbd/internal/device"
)

// Class categorizes a kernel by its compute profile.
type Class int

// Kernel classes, ordered roughly by arithmetic intensity.
const (
	GEMM Class = iota
	Conv
	BatchNorm
	Pointwise
	Reduction
	SoftmaxClass
	Pooling
	EmbeddingLookup
	OptimizerClass
	Transfer
)

// String implements fmt.Stringer.
func (c Class) String() string {
	switch c {
	case GEMM:
		return "gemm"
	case Conv:
		return "conv"
	case BatchNorm:
		return "batchnorm"
	case Pointwise:
		return "pointwise"
	case Reduction:
		return "reduction"
	case SoftmaxClass:
		return "softmax"
	case Pooling:
		return "pooling"
	case EmbeddingLookup:
		return "embedding"
	case OptimizerClass:
		return "optimizer"
	case Transfer:
		return "transfer"
	default:
		return fmt.Sprintf("class(%d)", int(c))
	}
}

// baseEfficiency is the fraction of peak FP32 throughput a fully occupied
// kernel of each class achieves. Compute-dense classes (conv, GEMM) run
// near library efficiency; normalization and pointwise kernels are
// memory-bound and cannot approach peak regardless of tuning — the effect
// behind the paper's Tables 5 and 6.
var baseEfficiency = map[Class]float64{
	GEMM:            0.50,
	Conv:            0.72,
	BatchNorm:       0.42,
	Pointwise:       0.30,
	Reduction:       0.25,
	SoftmaxClass:    0.30,
	Pooling:         0.35,
	EmbeddingLookup: 0.20,
	OptimizerClass:  0.30,
	Transfer:        0.10,
}

// occupancyGrain is the FLOPs-per-core needed to reach ~50% occupancy.
// Larger GPUs need proportionally more parallel work to fill, which is why
// the Titan Xp shows *lower* utilization than the P4000 on identical
// workloads (Observation 10).
const occupancyGrain = 35e3

// Kernel is one GPU kernel launch: a name (framework-styled), a class, and
// its analytic cost.
type Kernel struct {
	Name  string
	Class Class
	// FLOPs is the single-precision operation count.
	FLOPs float64
	// Bytes is the DRAM traffic (reads + writes).
	Bytes float64
	// Sync marks a host synchronization point: the CPU must drain the GPU
	// before dispatching past this kernel (the per-timestep control flow
	// of unfused RNN loops). Sync points are what prevent LSTM models
	// from keeping the GPU busy — Observation 5.
	Sync bool
	// EffScale multiplies the class efficiency (0 means 1): convolution
	// algorithm variants differ here (Winograd > precomp > implicit).
	EffScale float64
	// Serial is the number of internally sequential phases (1 for
	// ordinary kernels). A fused cuDNN RNN kernel is Serial=T: only one
	// timestep's work is parallel at once, so small batches cannot fill
	// the device even though the kernel as a whole is enormous — the
	// reason Deep Speech 2 scales nearly linearly with batch size while
	// staying at low FP32 utilization (Observations 2 and 7).
	Serial int
}

// Occupancy returns the fraction of g's cores this kernel can keep busy,
// an increasing saturating function of concurrently available work per
// core (one serial phase's worth).
func (k Kernel) Occupancy(g *device.GPU) float64 {
	serial := float64(k.serial())
	work := k.FLOPs / serial
	if b := k.Bytes / serial; work < b {
		// Memory-heavy kernels still spawn a thread per element.
		work = b
	}
	sat := occupancyGrain * float64(g.CoreCount)
	return work / (work + sat)
}

func (k Kernel) serial() int {
	if k.Serial > 1 {
		return k.Serial
	}
	return 1
}

// Duration returns the modeled execution time of k on g in seconds:
// a roofline over compute (derated by class efficiency and occupancy) and
// memory bandwidth, applied per serial phase, plus the fixed launch
// latency.
func (k Kernel) Duration(g *device.GPU) float64 {
	if k.Class == Transfer {
		// Host<->device copies cross the PCIe bus, not device DRAM.
		return TransferDuration(k.Bytes, device.PCIe3) + g.LaunchLatencySec
	}
	eff := baseEfficiency[k.Class] * k.Occupancy(g)
	if k.EffScale > 0 {
		eff *= k.EffScale
	}
	if eff <= 0 {
		eff = 1e-6
	}
	serial := float64(k.serial())
	compute := k.FLOPs / serial / (g.PeakFLOPS() * eff)
	memory := k.Bytes / serial / g.MemBandwidth()
	return serial*math.Max(compute, memory) + g.LaunchLatencySec
}

// TransferDuration prices a host<->device copy over the PCIe bus rather
// than device memory (used for the per-iteration input upload).
func TransferDuration(bytes float64, bus *device.Interconnect) float64 {
	return bus.TransferTime(int64(bytes))
}

// InputTransfer builds the host-to-device copy kernel that uploads one
// mini-batch of input samples, the "data transfers" stage of §2.3 that
// the paper observes is usually overlapped with computation.
func InputTransfer(batch int, sampleBytes int64) Kernel {
	return Kernel{
		Name:  "cudaMemcpyHtoD<input batch>",
		Class: Transfer,
		FLOPs: 0,
		Bytes: float64(batch) * float64(sampleBytes),
	}
}
