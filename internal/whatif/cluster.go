package whatif

import (
	"fmt"
	"math"
	"strings"

	"tbd/internal/prof"
	"tbd/internal/sched"
)

// pieceElems is dist's pacing grain: throttleChunk (64 KiB) of fp32, a
// ring piece and a parameter-server range.
const pieceElems = 64 << 10 / 4

// maxTasks bounds the task list a trace file can ask for (each task is
// about a hundred bytes, scheduled twice).
const maxTasks = 1 << 20

// wireBytes mirrors dist.Compression's wire encoding (4-byte fp32,
// 2-byte fp16, 1-byte int8 payloads; a trace that names none is fp32).
// Kept as a local table so the predictor does not import the live runtime
// it models.
var wireBytes = map[string]float64{"": 4, "full": 4, "fp16": 2, "int8": 1}

// rankStep is one rank's step in the cluster schedule.
type rankStep struct {
	step, sync, task int     // the step span, its child holding the exchange, its compute task
	comm             []int   // its outermost comm spans, in start order
	computeUs, cpuUs float64 // recorded: the step's start to sync, the comm spans' CPU
	ends             []int   // per comm span, the task whose end closes its part of the exchange
}

// piece is a task's work: elems elements on a link lane, packed when the
// hop carries the compressed encoding (reduce-scatter, push), or cpuUs on
// the parameter server's CPU lane. A task on a rank's lane is its compute.
type piece struct {
	step, lane   int
	elems, cpuUs float64
	packed       bool
}

func (p piece) bytes(packed float64) float64 {
	if p.packed {
		return p.elems * packed
	}
	return p.elems * 4
}

// applyCluster is the cluster model. A trace of several ranks becomes one
// task list on internal/sched: per rank and step, a compute task on the
// rank's lane (ranks aligned by step index, since each process has its own
// epoch), then the exchange in pieces. A ring sends 2(N-1) hops on each
// rank's outgoing lane, a piece of hop h once the previous rank's piece of
// hop h-1 is in. A parameter server funnels every rank through the server
// NIC, a lane each way (ThrottleShared), and through the server's CPU: each
// push range is taken in on one of the host's CPUs (the trace's Meta.CPUs,
// rank r on lane r mod CPUs), priced at its share of the CPU its rank
// recorded over the exchange (the server reads every push a rank writes
// and writes every reply it reads); a trace that recorded no CPU has no
// such lanes. A sync reply of range k leaves once every rank's range k is
// taken in, an async one once its own is.
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
	// ways: 2(N-1) ring hops of a chunk, or a push and an fp32 reply. Each
	// hop's pieces are a task per rank (a PS range three: push, intake, reply).
	hops, links, perPiece := 2*(n-1), n, 1.0
	if ps {
		hops, links, perPiece = 1, 2, 2
		if cpu {
			perPiece = 3
		}
	}
	elems := bytes / float64(exchanges*hops) / (oldC + 4)
	if !(elems > 0) { // no exchange recorded
		return false
	}
	count := float64(n*steps) * (1 + float64(hops)*math.Ceil(elems/pieceElems)*perPiece)
	if count > maxTasks {
		g.notes = append(g.notes, fmt.Sprintf("cluster model skipped: %.4g bytes in %d ranks' comm spans is past %d tasks", bytes, n, maxTasks))
		return false
	}
	lanes, cpus := n+links, 0
	if cpu { // the host's CPUs, after the server's two NIC lanes
		cpus = min(max(t.Meta.CPUs, 1), n)
		lanes += cpus
	}

	tasks, pieces, arena := make([]sched.Task, 0, int(count)), make([]piece, 0, int(count)), make([]int, 0, int(count))
	add := func(lane int, deps []int, p piece) int {
		p.lane = lane
		tasks, pieces = append(tasks, sched.Task{Lane: lane, Deps: deps}), append(pieces, p)
		return len(tasks) - 1
	}
	one := func(d int) []int { // a task's one dependency, cut from one array
		arena = append(arena, d)
		return arena[len(arena)-1 : len(arena) : len(arena)]
	}
	last := make([][]int, n) // what rank r waits on before its next step
	for s := range steps {
		for r := range n {
			ranks[r][s].task = add(r, last[r], piece{step: s})
		}
		if ps {
			for a := 0.0; a < elems; a += pieceElems {
				e, in := min(pieceElems, elems-a), make([]int, n)
				for r := range n {
					in[r] = add(n, one(ranks[r][s].task), piece{step: s, elems: e, packed: true})
					if cpu {
						in[r] = add(n+2+r%cpus, one(in[r]), piece{step: s, cpuUs: ranks[r][s].cpuUs * e / elems})
					}
				}
				for r := range n {
					after := in
					if t.Meta.Strategy == "ps-async" {
						after = in[r : r+1]
					}
					last[r] = one(add(n+1, after, piece{step: s, elems: e}))
				}
			}
			for r := range n {
				ranks[r][s].ends = last[r]
			}
			continue
		}
		// A rank's reduce-scatter ends with the previous rank's last piece of
		// hop N-2, its all-gather with that of hop 2(N-1)-1.
		sent := make([][]int, n) // each rank's pieces of the hop before
		for h := range hops {
			now := make([][]int, n)
			for r := range n {
				for p, a := 0, 0.0; a < elems; p, a = p+1, a+pieceElems {
					dep := ranks[r][s].task
					if h > 0 {
						dep = sent[(r+n-1)%n][p]
					}
					now[r] = append(now[r], add(n+r, one(dep), piece{step: s, elems: min(pieceElems, elems-a), packed: h < n-1}))
				}
			}
			sent = now
			for r := range n {
				if h == n-2 || h == hops-1 {
					last[r] = sent[(r+n-1)%n][len(sent[r])-1:]
					ranks[r][s].ends = append(ranks[r][s].ends, last[r][0])
				}
			}
		}
	}

	// The recorded link is the trace's token bucket, 10 ms of line rate (at
	// least 16 KiB) full at each step's start. Unthrottled, each link lane
	// is priced at the rate it achieved over the mean rank's comm self time.
	bucket := func(mbps float64) (rate, burst float64) {
		if mbps <= 0 {
			return math.Inf(1), math.Inf(1)
		}
		return mbps * 1e6, max(mbps*1e4, 16<<10)
	}
	rate, burst := bucket(t.Meta.BandwidthMBps)
	ceil := math.Inf(1)
	if t.Meta.BandwidthMBps <= 0 {
		sentB := 0.0
		for _, p := range pieces {
			sentB += p.bytes(oldC)
		}
		ceil = sentB / float64(links) / (busyUs / float64(n) / 1e6)
	}
	run := func(rate, burst, packed float64, computeUs func(*rankStep) float64) []float64 {
		sent, step := make([]float64, lanes), 0
		for i, p := range pieces {
			if p.step != step {
				clear(sent)
				step = p.step
			}
			switch b := p.bytes(packed); {
			case p.lane < n:
				tasks[i].Dur = computeUs(&ranks[p.lane][p.step])
			case b == 0:
				tasks[i].Dur = p.cpuUs
			default:
				paced := min(b, max(0, sent[p.lane]+b-burst))
				sent[p.lane] += b
				tasks[i].Dur = max(b/ceil, paced/rate) * 1e6
			}
		}
		_, end := sched.Run(tasks, lanes)
		return end
	}
	before := run(rate, burst, oldC, func(rs *rankStep) float64 { return rs.computeUs })
	newC := oldC
	if sc.Compression != "" {
		newC = wireBytes[sc.Compression]
	}
	if sc.BandwidthMBps != 0 {
		rate, burst = bucket(sc.BandwidthMBps)
	}
	after := run(rate, burst, newC, func(rs *rankStep) float64 {
		d := rs.computeUs + (newDur[rs.step] - g.nodes[rs.step].durUs)
		for _, k := range g.nodes[rs.step].Children {
			if at := g.nodes[rs.step].base + k; at >= rs.sync {
				d -= newDur[at] - g.nodes[at].durUs
			}
		}
		return max(d, 0)
	})

	for r := range ranks {
		for _, rs := range ranks[r] {
			ends, comm := rs.ends, rs.comm
			if len(comm) != len(ends) && len(comm) > 0 { // the last span holds the whole exchange
				ends, comm = ends[len(ends)-1:], comm[len(comm)-1:]
			}
			from := rs.task
			for k, at := range ends[:len(comm)] {
				if c := &g.nodes[comm[k]]; !c.dropped {
					c.newSelfUs += (after[at] - after[from]) - (before[at] - before[from])
				}
				from = at
			}
		}
	}
	note := fmt.Sprintf("cluster model: %d ranks' exchanges scheduled in 64 KiB pieces on %d lanes; comm spans move by the schedule's change, their CPU time held constant", n, lanes)
	if cpu {
		note += ", and the server takes each push in on one CPU lane at its rank's recorded exchange CPU"
	}
	g.notes = append(g.notes, note)
	return true
}
