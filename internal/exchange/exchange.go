// Package exchange is a cluster's gradient exchange as one task list on
// internal/sched: each rank computes on its own lane, its gradient
// buckets ready at points along the step, and each bucket moves in
// 64 KiB pieces, on each rank's link lane for a ring, or through a
// parameter server's two NIC lanes, which every rank shares, and
// optionally its CPU lanes. The what-if predictor prices recorded cluster
// traces on it, the simulator's Figure 10 a simulated iteration. Times
// are in µs, rates in bytes a second.
package exchange

import (
	"fmt"
	"math"
	"slices"

	"tbd/internal/sched"
)

// PieceElems is dist's pacing grain: throttleChunk (64 KiB) of fp32, a
// ring piece and a parameter-server range.
const PieceElems = 64 << 10 / 4

// maxTasks bounds the task list (each task is about a hundred bytes).
const maxTasks = 1 << 20

// Strategy is how the ranks exchange their gradients.
type Strategy int

// Strategies. A sync server replies to a range once every rank's push of
// it is in, an async one once the rank's own is. A ring sends 2(N-1) hops
// of a bucket's 1/N chunk, a piece of hop h once the previous rank's
// piece of hop h-1 is in.
const (
	SyncPS Strategy = iota
	AsyncPS
	Ring
)

// Shape is what a task list is built from: every rank-step exchanges the
// same buckets, each its gradient's element count, in the order they
// become ready. A server with CPUs > 0 takes rank r's pushes in on CPU
// lane r mod CPUs.
type Shape struct {
	Ranks, Steps int
	Strategy     Strategy
	Buckets      []float64
	CPUs         int
}

// Step is a rank's step in a run: when each bucket is ready, from the
// step's start, and the CPU the rank recorded over its exchange, which
// the server's intake of each piece takes its share of.
type Step struct {
	Ready []float64
	CPUUs float64
}

// Link prices a piece on a link lane: a token bucket of Burst bytes, full
// at each step's start and refilled at Rate, and no faster than Ceil.
type Link struct{ Rate, Burst, Ceil float64 }

// Wire is an element's bytes each way: Out for gradients (a ring's
// reduce-scatter, a push), Back for the rest (all-gather, reply).
type Wire struct{ Out, Back float64 }

// Schedule is a built task list on Lanes lanes: the ranks', then Links
// link lanes, then the server's CPUs.
type Schedule struct {
	Lanes, Links int
	ranks        int
	elems        float64 // a rank-step's gradient
	tasks        []sched.Task
	pieces       []piece
	marks        [][]int // per bucket: its compute segment, then the tasks closing its exchange's parts
}

// piece is a task's work: a compute segment (the rank's bucket slot
// ready), elems elements on a link lane (out when it carries gradients),
// or the server's intake of elems on a CPU lane.
type piece struct {
	kind, rank, step, slot int
	elems                  float64
	out                    bool
}

const (
	segment = iota
	link
	cpu
)

// New builds the task list. It refuses an empty bucket and a list past
// maxTasks.
func New(sh Shape) (*Schedule, error) {
	n, ps := sh.Ranks, sh.Strategy != Ring
	hops, links, perPiece := 2*(n-1), n, 1.0
	if ps {
		hops, links, perPiece = 1, 2, 2
		if sh.CPUs > 0 {
			perPiece = 3
		}
	}
	x := &Schedule{Lanes: n + links, Links: links, ranks: n}
	count := 0.0
	for _, g := range sh.Buckets {
		if !(g > 0) {
			return nil, fmt.Errorf("a bucket of %g elements", g)
		}
		count += 1 + float64(hops)*math.Ceil(chunk(sh, g)/PieceElems)*perPiece
		x.elems += g
	}
	if count *= float64(n * sh.Steps); count > maxTasks {
		return nil, fmt.Errorf("%d ranks' %.4g elements a step are past %d tasks", n, x.elems, maxTasks)
	}
	if ps && sh.CPUs > 0 {
		x.Lanes += sh.CPUs
	}
	x.tasks, x.pieces = make([]sched.Task, 0, int(count)), make([]piece, 0, int(count))
	x.marks = make([][]int, n*sh.Steps*len(sh.Buckets))
	arena := make([]int, 0, int(count))
	add := func(lane int, deps []int, p piece) int {
		x.tasks, x.pieces = append(x.tasks, sched.Task{Lane: lane, Deps: deps}), append(x.pieces, p)
		return len(x.tasks) - 1
	}
	one := func(d int) []int { // a task's one dependency, cut from one array
		arena = append(arena, d)
		return arena[len(arena)-1 : len(arena) : len(arena)]
	}
	last := make([][]int, n) // what rank r waits on before its next step
	for s := range sh.Steps {
		for b, g := range sh.Buckets {
			mark := func(r int) *[]int { return &x.marks[(r*sh.Steps+s)*len(sh.Buckets)+b] }
			for r := range n {
				var deps []int
				if b == 0 {
					deps = last[r]
				}
				*mark(r) = []int{add(r, deps, piece{kind: segment, rank: r, step: s, slot: b})}
			}
			elems := chunk(sh, g)
			if ps {
				for a := 0.0; a < elems; a += PieceElems {
					e, in := min(PieceElems, elems-a), make([]int, n)
					for r := range n {
						in[r] = add(n, one((*mark(r))[0]), piece{kind: link, step: s, elems: e, out: true})
						if sh.CPUs > 0 {
							in[r] = add(n+2+r%sh.CPUs, one(in[r]), piece{kind: cpu, rank: r, step: s, elems: e})
						}
					}
					for r := range n {
						after := in
						if sh.Strategy == AsyncPS {
							after = in[r : r+1]
						}
						last[r] = one(add(n+1, after, piece{kind: link, step: s, elems: e}))
					}
				}
				for r := range n {
					*mark(r) = append(*mark(r), last[r][0])
				}
				continue
			}
			// A rank's reduce-scatter ends with the previous rank's last
			// piece of hop N-2, its all-gather with that of hop 2(N-1)-1.
			sent := make([][]int, n) // each rank's pieces of the hop before
			for h := range hops {
				now := make([][]int, n)
				for r := range n {
					for p, a := 0, 0.0; a < elems; p, a = p+1, a+PieceElems {
						dep := (*mark(r))[0]
						if h > 0 {
							dep = sent[(r+n-1)%n][p]
						}
						now[r] = append(now[r], add(n+r, one(dep), piece{kind: link, step: s, elems: min(PieceElems, elems-a), out: h < n-1}))
					}
				}
				sent = now
				for r := range n {
					if h == n-2 || h == hops-1 {
						last[r] = sent[(r+n-1)%n][len(sent[r])-1:]
						*mark(r) = append(*mark(r), last[r][0])
					}
				}
			}
		}
	}
	return x, nil
}

// chunk is what a rank sends of a bucket a hop: a ring's 1/N chunk, or
// the whole gradient to a server.
func chunk(sh Shape, g float64) float64 {
	if sh.Strategy == Ring {
		return g / float64(sh.Ranks)
	}
	return g
}

// Bytes is what the link lanes carry over a run at w.
func (x *Schedule) Bytes(w Wire) float64 {
	sum := 0.0
	for _, p := range x.pieces {
		if p.kind == link {
			sum += p.bytes(w)
		}
	}
	return sum
}

func (p piece) bytes(w Wire) float64 {
	if p.out {
		return p.elems * w.Out
	}
	return p.elems * w.Back
}

// Run prices every task, steps[r][s] being rank r's step s, and schedules
// the list. Bucket i = (r·Steps + s)·len(Buckets) + b of the result holds
// when it was ready, then when each part of its exchange ended on the
// rank's side (a ring's reduce-scatter and all-gather, a server's
// replies). busy is the busiest link lane's busy time.
func (x *Schedule) Run(steps [][]Step, l Link, w Wire) (marks [][]float64, busy float64) {
	sent, lane, step := make([]float64, x.Lanes), make([]float64, x.Lanes), 0
	for i, p := range x.pieces {
		if p.step != step {
			clear(sent)
			step = p.step
		}
		switch st, t := &steps[p.rank][p.step], &x.tasks[i]; p.kind {
		case segment:
			t.Dur = st.Ready[p.slot]
			if p.slot > 0 {
				t.Dur -= st.Ready[p.slot-1]
			}
		case cpu:
			t.Dur = st.CPUUs * p.elems / x.elems
		default:
			b := p.bytes(w)
			paced := min(b, max(0, sent[t.Lane]+b-l.Burst))
			sent[t.Lane] += b
			t.Dur = max(b/l.Ceil, paced/l.Rate) * 1e6
			lane[t.Lane] += t.Dur
		}
	}
	_, end := sched.Run(x.tasks, x.Lanes)
	marks = make([][]float64, len(x.marks))
	for i, m := range x.marks {
		for _, at := range m {
			marks[i] = append(marks[i], end[at])
		}
	}
	return marks, slices.Max(lane[x.ranks : x.ranks+x.Links])
}
