package sim

import (
	"fmt"

	"tbd/internal/device"
	"tbd/internal/kernels"
)

// The cluster model of §2.2 / §4.5: data-parallel scaling of a simulated
// iteration across GPUs and machines, reproducing Figure 10 (parameter-
// server and ring all-reduce aggregation over PCIe, Ethernet, or
// InfiniBand). The runtime that moves real gradients over sockets is
// internal/dist; the two share no code.

// Strategy selects the gradient-aggregation scheme.
type Strategy int

// Aggregation strategies.
const (
	// ParameterServer pushes gradients to a central server and pulls
	// weights back (Li et al., the scheme the paper cites).
	ParameterServer Strategy = iota
	// RingAllReduce exchanges gradient chunks around a ring (the
	// NCCL-style alternative).
	RingAllReduce
)

// Cluster describes one hardware configuration of the scaling study.
type Cluster struct {
	Name           string
	Machines       int
	GPUsPerMachine int
	// IntraLink connects GPUs within a machine (PCIe 3.0 in the paper).
	IntraLink *device.Interconnect
	// InterLink connects machines (Ethernet or InfiniBand).
	InterLink *device.Interconnect
	Strategy  Strategy
	// OverlapFraction is how much of the communication hides behind the
	// backward pass (frameworks overlap gradient push with remaining
	// backprop).
	OverlapFraction float64
	// GradCompression divides the gradient wire volume (2 for fp16
	// payloads, higher for sparsification); 0 or 1 means none — the
	// §4.5 recommendation to reduce the data sent.
	GradCompression float64
}

// Workers returns the total GPU count.
func (c Cluster) Workers() int { return c.Machines * c.GPUsPerMachine }

// Figure10Configs returns the five configurations of the paper's
// Figure 10: 1M1G, 2M1G over Ethernet, 2M1G over InfiniBand, 1M2G, 1M4G.
func Figure10Configs() []Cluster {
	base := Cluster{IntraLink: device.PCIe3, Strategy: ParameterServer, OverlapFraction: 0.5}
	mk := func(name string, machines, gpus int, inter *device.Interconnect) Cluster {
		c := base
		c.Name, c.Machines, c.GPUsPerMachine, c.InterLink = name, machines, gpus, inter
		return c
	}
	return []Cluster{
		mk("1M1G", 1, 1, nil),
		mk("2M1G (ethernet)", 2, 1, device.Ethernet),
		mk("2M1G (infiniband)", 2, 1, device.InfiniBand),
		mk("1M2G", 1, 2, nil),
		mk("1M4G", 1, 4, nil),
	}
}

// ScaleResult is the simulated performance of one cluster configuration.
type ScaleResult struct {
	Cluster     Cluster
	PerGPUBatch int
	TotalBatch  int
	// ComputeSec is the per-iteration compute time on each worker.
	ComputeSec float64
	// CommSec is the exposed (non-overlapped) communication time.
	CommSec float64
	// RawCommSec is communication before overlap.
	RawCommSec  float64
	IterTimeSec float64
	Throughput  float64
	// ScalingEfficiency is throughput relative to Workers x single-GPU.
	ScalingEfficiency float64
}

// GradientBytes sums the trainable-parameter bytes of an op graph — the
// payload every worker must exchange each iteration.
func GradientBytes(ops []*kernels.Op) int64 {
	var n int64
	for _, o := range ops {
		n += o.ParamElems() * 4
	}
	return n
}

// commTime returns the raw per-iteration communication time for grad
// bytes under the cluster's links and strategy.
func commTime(c Cluster, gradBytes int64) float64 {
	w := c.Workers()
	if w <= 1 {
		return 0
	}
	if c.GradCompression > 1 {
		gradBytes = int64(float64(gradBytes) / c.GradCompression)
	}
	// The slowest link on the reduction path dominates.
	link := c.IntraLink
	if c.Machines > 1 && c.InterLink != nil {
		link = c.InterLink
	}
	switch c.Strategy {
	case RingAllReduce:
		// Each worker sends and receives 2*(w-1)/w of the gradient.
		vol := int64(2 * float64(gradBytes) * float64(w-1) / float64(w))
		return link.TransferTime(vol)
	default: // ParameterServer
		// Push gradients + pull weights; the server's link serializes
		// across workers on a shared medium.
		vol := 2 * gradBytes
		t := link.TransferTime(vol)
		if c.GPUsPerMachine > 1 {
			// GPUs share the host PCIe complex.
			t *= float64(c.GPUsPerMachine)
		}
		return t
	}
}

// Scale simulates data-parallel training of an op graph: every worker
// runs perGPUBatch samples per iteration under cfg, then gradients are
// exchanged per the cluster configuration; scaling efficiency is relative
// to that same iteration on one worker.
func Scale(ops []*kernels.Op, perGPUBatch int, style kernels.NameStyle, cfg Config, c Cluster) ScaleResult {
	compute := Simulate(ops, perGPUBatch, style, cfg).IterTimeSec
	raw := commTime(c, GradientBytes(ops))
	exposed := raw * (1 - c.OverlapFraction)
	// Overlap can only hide communication behind compute that exists.
	if hidden := raw - exposed; hidden > compute {
		exposed = raw - compute
	}
	iter := compute + exposed
	w := c.Workers()
	total := perGPUBatch * w
	thr := float64(total) / iter
	single := float64(perGPUBatch) / compute
	return ScaleResult{
		Cluster:           c,
		PerGPUBatch:       perGPUBatch,
		TotalBatch:        total,
		ComputeSec:        compute,
		CommSec:           exposed,
		RawCommSec:        raw,
		IterTimeSec:       iter,
		Throughput:        thr,
		ScalingEfficiency: thr / (single * float64(w)),
	}
}

// String implements fmt.Stringer.
func (r ScaleResult) String() string {
	return fmt.Sprintf("%s batch %d/GPU: %.1f samples/s (%.0f%% scaling efficiency)",
		r.Cluster.Name, r.PerGPUBatch, r.Throughput, 100*r.ScalingEfficiency)
}
