package tensor

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Parallel execution for the heavy numeric kernels. Work is split across a
// persistent pool of worker goroutines fed through a channel; the pool is
// started lazily the first time more than one worker is requested, so a
// serial process never pays for it. Splits are always over disjoint output
// regions (GEMM rows, im2col rows, conv batches) and every kernel's
// per-element reduction order is independent of the split, so parallel
// results are bit-identical to serial ones.

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

// rowTask is one contiguous block of rows for a worker to run.
type rowTask struct {
	fn     func(lo, hi int)
	lo, hi int
	wg     *sync.WaitGroup
}

var (
	workMu      sync.Mutex
	workCh      chan rowTask
	workStarted int
)

// ensureWorkers makes sure at least want worker goroutines are draining
// workCh. Workers are never torn down; an idle worker costs only a parked
// goroutine.
func ensureWorkers(want int) chan rowTask {
	workMu.Lock()
	defer workMu.Unlock()
	if workCh == nil {
		workCh = make(chan rowTask, 4*maxParallelism())
	}
	for workStarted < want {
		workStarted++
		go func() {
			for t := range workCh {
				t.fn(t.lo, t.hi)
				t.wg.Done()
			}
		}()
	}
	return workCh
}

// rowWorkers reports how many workers parallelRows would use for n units
// of work with the given per-worker minimum. Hot call sites branch on it
// before building the dispatch closure: a closure handed to parallelRows
// escapes to the worker channel, so merely constructing one heap-allocates,
// and the serial path should instead call its kernel directly.
func rowWorkers(n, minRowsPerWorker int) int {
	if minRowsPerWorker < 1 {
		minRowsPerWorker = 1
	}
	workers := Parallelism()
	if w := n / minRowsPerWorker; workers > w {
		workers = w
	}
	if workers < 1 {
		workers = 1
	}
	return workers
}

// parallelRows splits [0, n) into contiguous blocks and runs fn(lo, hi)
// on each, in parallel when the work is large enough to amortize dispatch.
// The first block always runs on the calling goroutine, and submission is
// non-blocking (a full queue degrades to inline execution), so nested
// parallel ops cannot deadlock the pool.
//
//tbd:sync-callback wg.Wait: every fn call has returned before parallelRows does
func parallelRows(n int, minRowsPerWorker int, fn func(lo, hi int)) {
	workers := rowWorkers(n, minRowsPerWorker)
	if workers <= 1 {
		fn(0, n)
		return
	}
	ch := ensureWorkers(workers - 1)
	block := (n + workers - 1) / workers
	var wg sync.WaitGroup
	for lo := block; lo < n; lo += block {
		hi := min(lo+block, n)
		wg.Add(1)
		select {
		case ch <- rowTask{fn: fn, lo: lo, hi: hi, wg: &wg}:
		default:
			fn(lo, hi)
			wg.Done()
		}
	}
	fn(0, min(block, n))
	wg.Wait()
}

// parallelRowsAligned is parallelRows with worker block boundaries rounded
// up to a multiple of align, so kernels that tile output rows in fixed-size
// register blocks see at most one ragged tail (in the last block) instead
// of one per worker. Alignment only moves the split points; each row's
// reduction is self-contained, so results are bit-identical to any other
// split.
//
//tbd:sync-callback wg.Wait: every fn call has returned before parallelRowsAligned does
func parallelRowsAligned(n, align, minRowsPerWorker int, fn func(lo, hi int)) {
	workers := rowWorkers(n, minRowsPerWorker)
	if workers <= 1 {
		fn(0, n)
		return
	}
	block := (n + workers - 1) / workers
	if align > 1 {
		block = (block + align - 1) / align * align
	}
	ch := ensureWorkers(workers - 1)
	var wg sync.WaitGroup
	for lo := block; lo < n; lo += block {
		hi := min(lo+block, n)
		wg.Add(1)
		select {
		case ch <- rowTask{fn: fn, lo: lo, hi: hi, wg: &wg}:
		default:
			fn(lo, hi)
			wg.Done()
		}
	}
	fn(0, min(block, n))
	wg.Wait()
}
