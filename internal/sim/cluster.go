package sim

import (
	"fmt"
	"math"
	"slices"

	"tbd/internal/device"
	"tbd/internal/exchange"
	"tbd/internal/kernels"
	"tbd/internal/prof"
)

// The cluster model of §2.2 / §4.5: data-parallel scaling of a simulated
// iteration across GPUs and machines, reproducing Figure 10 (parameter-
// server and ring all-reduce aggregation over PCIe, Ethernet, or
// InfiniBand). The exchange is internal/exchange's schedule, the one the
// what-if predictor replays recorded cluster runs on.

// Strategy selects the gradient-aggregation scheme: a parameter server
// that workers push gradients to and pull weights back from (Li et al.,
// the scheme the paper cites), or a ring all-reduce (NCCL's).
type Strategy = exchange.Strategy

// Aggregation strategies.
const (
	ParameterServer = exchange.SyncPS
	//tbd:api the scheme a caller's Cluster picks over Figure 10's parameter server, as the ring-versus-server test does
	RingAllReduce = exchange.Ring
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
	base := Cluster{IntraLink: device.PCIe3, Strategy: ParameterServer}
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
	// CommSec is the part of the exchange that outlasts backward, which
	// the update waits for.
	CommSec float64
	// RawCommSec is the busiest link lane's busy time.
	RawCommSec  float64
	IterTimeSec float64
	Throughput  float64
	// ScalingEfficiency is throughput relative to Workers x single-GPU.
	ScalingEfficiency float64
}

// Scale simulates data-parallel training of an op graph: every worker
// runs perGPUBatch samples per iteration under cfg while exchanging each
// op's gradient once its last backward kernel ends; the update waits for
// the exchange. Scaling efficiency is relative to that same iteration on
// one worker.
func Scale(ops []*kernels.Op, perGPUBatch int, style kernels.NameStyle, cfg Config, c Cluster) ScaleResult {
	var rec prof.Capture
	stream := Stream(ops, perGPUBatch, style, cfg)
	compute, w := Replay(stream, perGPUBatch, cfg, &rec).IterTimeSec, c.Workers()
	var exposed, raw float64
	if w > 1 {
		exposed, raw = exchangeSec(ops, perGPUBatch, style, stream, rec.Records, c)
	}
	iter := compute + exposed
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

// exchangeSec schedules one iteration's exchange across c's workers on
// the cluster's slowest link: a ring's lane a worker, or a server's push
// and reply lanes, which every worker shares. Each op's gradient is a
// bucket, ready when the op's last backward kernel span ends in the
// one-GPU iteration's trace. It returns how long the exchange outlasts
// backward and the busiest link lane's busy time.
func exchangeSec(ops []*kernels.Op, batch int, style kernels.NameStyle, stream []kernels.Kernel, spans []prof.Record, c Cluster) (exposed, busy float64) {
	var end []float64 // each kernel's end in µs, in stream order
	for _, s := range spans {
		if s.Cat == prof.CatKernel {
			end = append(end, float64(s.Start+s.Dur)/1e3)
		}
	}
	// Backward runs the ops in reverse, each op's kernels together.
	at := slices.IndexFunc(stream, func(k kernels.Kernel) bool { return k.Phase == kernels.PhaseBackward })
	var grads, ready []float64
	for i := len(ops) - 1; i >= 0; i-- {
		at += len(ops[i].Backward(batch, style))
		if e := ops[i].ParamElems(); e > 0 {
			grads, ready = append(grads, float64(e)), append(ready, end[at-1])
		}
	}
	if len(grads) == 0 {
		return 0, 0
	}
	x, err := exchange.New(exchange.Shape{Ranks: c.Workers(), Steps: 1, Strategy: c.Strategy, Buckets: grads})
	if err != nil {
		panic(fmt.Sprintf("sim: %s exchange: %v", c.Name, err))
	}
	link := c.IntraLink
	if c.Machines > 1 && c.InterLink != nil {
		link = c.InterLink
	}
	wire := 4.0
	if c.GradCompression > 1 {
		wire /= c.GradCompression
	}
	steps := make([][]exchange.Step, c.Workers())
	for r := range steps {
		steps[r] = []exchange.Step{{Ready: ready}}
	}
	marks, busy := x.Run(steps, exchange.Link{Rate: link.Bandwidth(), Ceil: math.Inf(1)}, exchange.Wire{Out: wire, Back: wire})
	last := 0.0
	for _, m := range marks {
		last = max(last, m[len(m)-1])
	}
	return max(0, last-end[at-1]) / 1e6, busy / 1e6
}
