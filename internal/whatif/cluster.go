package whatif

import (
	"fmt"
	"math"
	"strings"

	"tbd/internal/exchange"
	"tbd/internal/prof"
)

// wireBytes mirrors dist.Compression's wire encoding (4-byte fp32,
// 2-byte fp16, 1-byte int8 payloads; a trace that names none is fp32).
// Kept as a local table so the predictor does not import the live runtime
// it models.
var wireBytes = map[string]float64{"": 4, "full": 4, "fp16": 2, "int8": 1}

// rankStep is one rank's step in the cluster schedule.
type rankStep struct {
	step, sync       int     // the step span, its child holding the exchange
	comm             []int   // its outermost comm spans, in start order
	computeUs, cpuUs float64 // recorded: the step's start to sync, the comm spans' CPU
}

// applyCluster is the cluster model. A trace of several ranks becomes one
// exchange schedule (internal/exchange): per rank and step, the compute
// from the step's start to the span holding the exchange (ranks aligned
// by step index, since each process has its own epoch), then one bucket,
// the step's gradient, exchanged in pieces. A parameter server's intake
// runs on the host's CPUs (the trace's Meta.CPUs), each push range priced
// at its share of the CPU its rank recorded over the exchange (the server
// reads every push a rank writes and writes every reply it reads); a
// trace that recorded no CPU has no such lanes.
// The list is scheduled with the recorded compute and link, then with the
// scenario's, and each comm span moves by how much longer its part of the
// exchange takes. So the CPU time inside a comm span stays constant, and
// an empty scenario replays bit for bit. It reports whether the trace had
// an exchange to schedule; newDur is the tree re-summed without it.
func applyCluster(g *graph, t *prof.Trace, sc *Scenario, newDur []float64) bool {
	n, ps := len(g.rankBase)-1, strings.HasPrefix(t.Meta.Strategy, "ps-")
	if !ps && (n < 2 || t.Meta.Strategy != "ring") {
		return false
	}
	oldC, known := wireBytes[t.Meta.Compression]
	if !known {
		g.notes = append(g.notes, fmt.Sprintf("cluster model skipped: unknown wire encoding %q", t.Meta.Compression))
		return false
	}
	ranks, steps := make([][]rankStep, n), math.MaxInt
	for r := range ranks {
		var rs *rankStep
		for i := g.rankBase[r]; i < g.rankBase[r+1]; i++ {
			if c := &g.nodes[i]; c.Up < 0 {
				rs = nil
				if c.Name == "step" && c.Cat == prof.CatPhase {
					ranks[r] = append(ranks[r], rankStep{step: i, sync: -1})
					rs = &ranks[r][len(ranks[r])-1]
				}
			} else if rs != nil && c.Cat == prof.CatComm && g.nodes[c.base+c.Up].Cat != prof.CatComm {
				rs.comm, rs.cpuUs = append(rs.comm, i), rs.cpuUs+float64(c.CPU)/1e3
				for at := i; rs.sync < 0; at = c.base + g.nodes[at].Up {
					if c.base+g.nodes[at].Up == rs.step { // the step's child holding the exchange
						rs.sync, rs.computeUs = at, max(0, float64(g.nodes[at].Start-g.nodes[rs.step].Start)/1e3)
					}
				}
			}
		}
		steps = min(steps, len(ranks[r]))
	}
	exchanges, bytes, busyUs, cpu := 0, 0.0, 0.0, false
	for r := range ranks {
		ranks[r] = ranks[r][:steps]
		for _, rs := range ranks[r] {
			for _, i := range rs.comm {
				bytes, busyUs = bytes+float64(g.nodes[i].Bytes), busyUs+g.nodes[i].selfUs
			}
			exchanges += min(len(rs.comm), 1)
			cpu = cpu || rs.cpuUs > 0
		}
	}
	// What a sender moves a hop, from the bytes the comm spans counted both
	// ways: 2(N-1) ring hops of a chunk, or a push and an fp32 reply.
	sh, hops := exchange.Shape{Ranks: n, Steps: steps, Strategy: exchange.Ring}, 2*(n-1)
	if ps {
		sh.Strategy, hops = exchange.SyncPS, 1
		if t.Meta.Strategy == "ps-async" {
			sh.Strategy = exchange.AsyncPS
		}
	}
	elems := bytes / float64(exchanges*hops) / (oldC + 4)
	if !(elems > 0) { // no exchange recorded
		return false
	}
	if sh.Buckets = []float64{elems}; !ps {
		sh.Buckets[0] *= float64(n) // the ring's hops carry 1/N chunks
	}
	if cpu {
		sh.CPUs = min(max(t.Meta.CPUs, 1), n)
	}
	x, err := exchange.New(sh)
	if err != nil {
		g.notes = append(g.notes, fmt.Sprintf("cluster model skipped: %.4g bytes in comm spans: %v", bytes, err))
		return false
	}

	// The recorded link is the trace's token bucket, 10 ms of line rate (at
	// least 16 KiB) full at each step's start. Unthrottled, each link lane
	// is priced at the rate it achieved over the mean rank's comm self time.
	link, wire := exchange.Link{Ceil: math.Inf(1)}, exchange.Wire{Out: oldC, Back: 4}
	throttle := func(mbps float64) {
		link.Rate, link.Burst = math.Inf(1), math.Inf(1)
		if mbps > 0 {
			link.Rate, link.Burst = mbps*1e6, max(mbps*1e4, 16<<10)
		}
	}
	if throttle(t.Meta.BandwidthMBps); t.Meta.BandwidthMBps <= 0 {
		link.Ceil = x.Bytes(wire) / float64(x.Links) / (busyUs / float64(n) / 1e6)
	}
	run := func(computeUs func(*rankStep) float64) [][]float64 {
		in := make([][]exchange.Step, n)
		for r := range in {
			for s := range ranks[r] {
				in[r] = append(in[r], exchange.Step{Ready: []float64{computeUs(&ranks[r][s])}, CPUUs: ranks[r][s].cpuUs})
			}
		}
		marks, _ := x.Run(in, link, wire)
		return marks
	}
	before := run(func(rs *rankStep) float64 { return rs.computeUs })
	if sc.Compression != "" {
		wire.Out = wireBytes[sc.Compression]
	}
	if sc.BandwidthMBps != 0 {
		throttle(sc.BandwidthMBps)
	}
	after := run(func(rs *rankStep) float64 {
		d := rs.computeUs + (newDur[rs.step] - g.nodes[rs.step].durUs)
		for _, k := range g.nodes[rs.step].Children {
			if at := g.nodes[rs.step].base + k; at >= rs.sync {
				d -= newDur[at] - g.nodes[at].durUs
			}
		}
		return max(d, 0)
	})

	for r := range ranks {
		for s, rs := range ranks[r] {
			// A comm span covers its part of the exchange: from the mark
			// before it (the gradient ready, first) to its part's end.
			a, b, comm := after[r*steps+s], before[r*steps+s], rs.comm
			if len(comm) != len(a)-1 && len(comm) > 0 { // the last span holds the whole exchange
				a, b, comm = []float64{a[0], a[len(a)-1]}, []float64{b[0], b[len(b)-1]}, comm[len(comm)-1:]
			}
			for k := range comm {
				if c := &g.nodes[comm[k]]; !c.dropped {
					c.newSelfUs += (a[k+1] - a[k]) - (b[k+1] - b[k])
				}
			}
		}
	}
	note := fmt.Sprintf("cluster model: %d ranks' exchanges scheduled in 64 KiB pieces on %d lanes; comm spans move by the schedule's change, their CPU time held constant", n, x.Lanes)
	if cpu {
		note += ", and the server takes each push in on one CPU lane at its rank's recorded exchange CPU"
	}
	g.notes = append(g.notes, note)
	return true
}
