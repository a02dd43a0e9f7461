package tensor

import (
	"runtime"
	"sync"
	"sync/atomic"

	"tbd/internal/prof"
)

// Parallel execution for the heavy numeric kernels. Work is split across a
// persistent pool of worker goroutines fed through a channel; the pool is
// started lazily the first time more than one worker is requested, so a
// serial process never pays for it. Splits are always over disjoint output
// regions (GEMM rows, conv images, channel groups) and every kernel's
// per-element reduction order is independent of the split, so parallel
// results are bit-identical to serial ones.
//
// A dispatch is a package-level body and a rowArgs record, never a
// closure, so no call allocates at any worker count: below two workers the
// body runs inline on the caller's copy of the record; at two or more the
// record is copied into a dispatch the pool owns and reuses, and the join
// is a counter in that dispatch.

// parallelism is the requested worker count. It is read on every op
// dispatch and may be written concurrently (A3C's async actors call
// SetParallelism), hence atomic.
var parallelism atomic.Int32

func init() { parallelism.Store(1) }

// maxParallelism bounds SetParallelism. At least 8 even on smaller hosts:
// the split is deterministic, so allowing more workers than cores is
// harmless and keeps multi-worker code paths testable everywhere.
func maxParallelism() int {
	return max(runtime.NumCPU(), 8)
}

// SetParallelism sets the worker count for heavy ops (clamped to
// [1, max(NumCPU, 8)]) and returns the value actually installed. Safe to
// call concurrently with running ops; in-flight dispatches may use either
// the old or the new count, with identical results.
func SetParallelism(n int) int {
	if n < 1 {
		n = 1
	}
	if m := maxParallelism(); n > m {
		n = m
	}
	parallelism.Store(int32(n))
	return n
}

// Parallelism returns the current worker count.
func Parallelism() int { return int(parallelism.Load()) }

// rowArgs is one dispatch's arguments: the union of the fields the range
// bodies read, each body unpacking its own into locals at entry. It holds
// values, and pointers only to heap or package data, never to a caller's
// local: a parallel dispatch copies it into a record the workers read, so
// a pointer into the caller's frame would move that local to the heap on
// every call, serial ones included. Hence the epilogue, the geometry and
// the parent span by value.
type rowArgs struct {
	dst, a, b, bp []float32 // output, operands, packed B panel
	p, q, s       []float32 // per-channel vectors (BatchNorm)
	idx           []int     // max-pool argmax
	n, k, m, kb   int       // GEMM shape and k-block; m is also a row width
	lay           gemmLayout
	accum         bool
	act           ActKind
	alpha         float32  // a scale (ScaleInPlace, AvgPool2D's 1/k²)
	eps, momentum float32  // BatchNorm
	ep            epilogue // the zero value is no epilogue
	tree, seq     microFn
	ek            *elemKernels
	w             *FrozenMatrix
	st            *BatchNormStats
	pl            chanPlanes
	g             convGeom
	sp            prof.Span // parent of per-image spans
}

// epi returns the record's epilogue, nil when it has none.
func (r *rowArgs) epi() *epilogue {
	if r.ep.colBias == nil && r.ep.rowBias == nil && r.ep.act == ActNone {
		return nil
	}
	return &r.ep
}

// dispatch is one parallel call in flight: the body, the caller's record
// copied, and a counter of blocks not yet finished. The worker that
// finishes the last block signals done.
type dispatch struct {
	body func(r rowArgs, lo, hi int)
	args rowArgs
	left atomic.Int32
	done chan struct{}
	next *dispatch // free-list link
}

// rowTask is one contiguous block of a dispatch for a worker to run.
type rowTask struct {
	d      *dispatch
	lo, hi int
}

var (
	workMu      sync.Mutex
	workCh      chan rowTask
	workStarted int
	free        *dispatch // guarded by workMu
)

// startDispatch makes sure at least want worker goroutines are draining
// workCh, and takes a record off the pool's free list or makes one. The
// list is the pool's own rather than a sync.Pool, which drops items at
// random under the race detector. Workers are never torn down; an idle
// worker costs only a parked goroutine.
func startDispatch(want int) (chan rowTask, *dispatch) {
	workMu.Lock()
	if workCh == nil {
		workCh = make(chan rowTask, 4*maxParallelism())
	}
	for workStarted < want {
		workStarted++
		go func() {
			for t := range workCh {
				t.d.body(t.d.args, t.lo, t.hi)
				if t.d.left.Add(-1) == 0 {
					t.d.done <- struct{}{}
				}
			}
		}()
	}
	d := free
	if d != nil {
		free = d.next
	}
	workMu.Unlock()
	if d == nil {
		d = &dispatch{done: make(chan struct{}, 1)}
	}
	return workCh, d
}

// putDispatch returns a finished record, dropping its references.
func putDispatch(d *dispatch) {
	d.body, d.args = nil, rowArgs{}
	workMu.Lock()
	d.next, free = free, d
	workMu.Unlock()
}

// parallelRows splits [0, n) into contiguous blocks of at least minRows
// rows and runs body(args, lo, hi) on each, in parallel when the work is
// large enough to amortize dispatch. With align > 1 the block boundaries
// are rounded up to a multiple of align, so kernels that tile rows in
// fixed-size register blocks see at most one ragged tail (in the last
// block); alignment only moves the split points. The first block always
// runs on the calling goroutine, and submission is non-blocking (a full
// queue degrades to inline execution). A body must not dispatch in turn:
// a waiting caller only blocks, so when every worker waits on a nested
// dispatch, the queued blocks they wait for never run. The bodies run
// their inner GEMMs with gemmSerial.
//
//tbd:sync-callback the done wait: every body call has returned before parallelRows does
func parallelRows(n, align, minRows int, body func(r rowArgs, lo, hi int), args rowArgs) {
	workers := min(Parallelism(), n/max(minRows, 1))
	if workers < 2 {
		body(args, 0, n)
		return
	}
	block := (n + workers - 1) / workers
	if align > 1 {
		block = (block + align - 1) / align * align
	}
	ch, d := startDispatch(workers - 1)
	d.body, d.args = body, args
	d.left.Store(int32((n + block - 1) / block))
	own := int32(1)
	for lo := block; lo < n; lo += block {
		hi := min(lo+block, n)
		select {
		case ch <- rowTask{d: d, lo: lo, hi: hi}:
		default:
			body(args, lo, hi)
			own++
		}
	}
	body(args, 0, min(block, n))
	if d.left.Add(-own) != 0 {
		<-d.done
	}
	putDispatch(d)
}
