package tensor

import (
	"math"
	"math/bits"
	"sync"
	"sync/atomic"

	"tbd/internal/prof"
)

// The live profiler attributes pool churn to spans; installing the
// counter source at init keeps prof free of a tensor dependency (tensor
// imports prof for kernel spans, not the other way around).
func init() {
	prof.SetPoolCounterSource(func() (gets, hits uint64) {
		return defaultPool.gets.Load(), defaultPool.hits.Load()
	})
}

// A Pool is a size-bucketed free list of tensor buffers. Training loops
// allocate the same tensor shapes every iteration (activations, gradient
// buffers, im2col workspaces), so recycling buffers turns a GC-bound
// steady state into a near-zero-allocation one — the host-side analogue
// of the framework memory arenas the paper's profiler observes.
//
// Buffers enter the pool only through an explicit Release; Get hands them
// back out zero-filled, so pooled allocation is semantically identical to
// New. The pool is safe for concurrent use (A3C's async actors share it).
type Pool struct {
	mu sync.Mutex
	// buckets[k] holds free tensors whose backing capacity is in
	// [2^k, 2^(k+1)), so any bucket entry satisfies a request with
	// ceilBucket(n) == k. Guarded by mu.
	buckets  [33][]*Tensor
	disabled atomic.Bool

	gets, hits, puts atomic.Uint64

	// packBuckets is a separate free list for GEMM panel-packing scratch.
	// Pack buffers churn at a different rate than activations (several
	// per GEMM call, always fully overwritten) and their sizes rarely
	// match tensor shapes; giving them their own size classes keeps them
	// from evicting activation buffers out of the capped tensor buckets.
	// Guarded by mu.
	packBuckets        [33][][]float32
	packGets, packHits atomic.Uint64
}

// poolBucketCap bounds the free tensors retained per size class so a
// burst of odd shapes cannot pin memory forever.
const poolBucketCap = 128

// ceilBucket returns the smallest k with n <= 2^k.
func ceilBucket(n int) int { return bits.Len(uint(n - 1)) }

// Get returns a zero-filled tensor of the given shape, reusing a released
// buffer when one of sufficient capacity is available.
func (p *Pool) Get(shape ...int) *Tensor { return p.get(shape, true) }

// get implements Get; zero=false skips the clear for callers that fully
// overwrite the buffer (a recycled buffer holds stale values otherwise).
func (p *Pool) get(shape []int, zero bool) *Tensor {
	n := checkShape(shape)
	p.gets.Add(1)
	if p.disabled.Load() || n == 0 {
		return New(shape...)
	}
	var t *Tensor
	b := ceilBucket(n)
	p.mu.Lock()
	for k := b; k < len(p.buckets) && t == nil; k++ {
		if l := p.buckets[k]; len(l) > 0 {
			t = l[len(l)-1]
			l[len(l)-1] = nil
			p.buckets[k] = l[:len(l)-1]
		}
	}
	p.mu.Unlock()
	if t == nil {
		// Round the backing array up to the bucket size so the buffer's
		// capacity class matches the bucket any same-size request scans
		// first; without this, odd-sized buffers land one bucket below
		// where Get looks and are never reused.
		buf := make([]float32, n, 1<<uint(b))
		// cap 4 covers NCHW, the highest-rank shape in the codebase, so
		// later reuse at a different rank never regrows the shape slice.
		return &Tensor{shape: append(make([]int, 0, 4), shape...), data: buf, pooled: true}
	}
	p.hits.Add(1)
	t.shape = append(t.shape[:0], shape...)
	t.data = t.data[:cap(t.data)][:n]
	if zero {
		clear(t.data)
	}
	t.pooled = true
	return t
}

// put returns t's buffer to the free list. Only tensors handed out by Get
// are accepted; the pooled flag makes a second release of the same tensor
// a no-op, so shared references (two layers stashing the same activation)
// cannot double-free.
func (p *Pool) put(t *Tensor) {
	if t == nil || !t.pooled {
		return
	}
	t.pooled = false
	if debugPoison.Load() {
		nan := float32(math.NaN())
		for i := range t.data {
			t.data[i] = nan
		}
	}
	if p.disabled.Load() || cap(t.data) == 0 {
		return
	}
	b := bits.Len(uint(cap(t.data))) - 1
	if b >= len(p.buckets) {
		// A buffer too large for any size class is dropped rather than
		// retained (or worse, indexed out of bounds).
		return
	}
	p.mu.Lock()
	if len(p.buckets[b]) < poolBucketCap {
		p.buckets[b] = append(p.buckets[b], t)
		p.puts.Add(1)
	}
	p.mu.Unlock()
}

// getPack returns an n-element scratch slice for GEMM panel packing. The
// contents are arbitrary (packing overwrites every element). Pack buffers
// live in their own bucket array — see packBuckets.
func (p *Pool) getPack(n int) []float32 {
	p.packGets.Add(1)
	if p.disabled.Load() || n == 0 {
		return make([]float32, n)
	}
	b := ceilBucket(n)
	p.mu.Lock()
	for q := b; q < len(p.packBuckets); q++ {
		if l := p.packBuckets[q]; len(l) > 0 {
			buf := l[len(l)-1]
			l[len(l)-1] = nil
			p.packBuckets[q] = l[:len(l)-1]
			p.mu.Unlock()
			p.packHits.Add(1)
			return buf[:n]
		}
	}
	p.mu.Unlock()
	// Same capacity rounding as get: land the buffer in the bucket a
	// same-size request scans first.
	return make([]float32, n, 1<<uint(b))
}

// putPack returns a getPack slice to the pack free list.
func (p *Pool) putPack(buf []float32) {
	if p.disabled.Load() || cap(buf) == 0 {
		return
	}
	b := bits.Len(uint(cap(buf))) - 1
	if b >= len(p.packBuckets) {
		return
	}
	p.mu.Lock()
	if len(p.packBuckets[b]) < poolBucketCap {
		p.packBuckets[b] = append(p.packBuckets[b], buf)
	}
	p.mu.Unlock()
}

// drain discards every retained buffer.
func (p *Pool) drain() {
	p.mu.Lock()
	for i := range p.buckets {
		p.buckets[i] = nil
	}
	for i := range p.packBuckets {
		p.packBuckets[i] = nil
	}
	p.mu.Unlock()
}

// defaultPool backs Acquire/Release; pooling is enabled by default.
var defaultPool Pool

// Acquire returns a zero-filled tensor of the given shape from the shared
// buffer pool. It is interchangeable with New; callers that know when the
// tensor is dead can Release it so the next Acquire of a similar size
// reuses the buffer instead of allocating.
func Acquire(shape ...int) *Tensor { return defaultPool.Get(shape...) }

// AcquireDirty is Acquire without the zero-fill guarantee: the returned
// buffer holds arbitrary stale values and the caller must store every
// element. Kernels that fully overwrite their output (normalizations,
// activations, pointwise backwards) use it to skip the memclr that
// dominates Acquire on large recycled buffers.
func AcquireDirty(shape ...int) *Tensor { return defaultPool.get(shape, false) }

// acquireDirty is the package-internal spelling of AcquireDirty.
func acquireDirty(shape ...int) *Tensor { return defaultPool.get(shape, false) }

// Release returns t's buffer to the shared pool. It is a no-op on nil
// tensors, tensors not obtained from Acquire, and tensors already
// released, so callers may release defensively. Reshape views never carry
// pool ownership; releasing one is a no-op.
//
// Releasing a tensor that is still referenced elsewhere is a
// use-after-free bug: the buffer will be handed out, zeroed, and
// overwritten by an unrelated op.
func (t *Tensor) Release() { defaultPool.put(t) }

// SetPooling enables or disables the shared buffer pool and reports the
// previous setting. Disabling also drops all retained buffers; Acquire
// then degenerates to New and Release to a no-op, which is useful for
// allocation-profiling comparisons.
func SetPooling(on bool) bool {
	prev := !defaultPool.disabled.Load()
	defaultPool.disabled.Store(!on)
	if !on {
		defaultPool.drain()
	}
	return prev
}

// PoolingEnabled reports whether the shared buffer pool is active.
//
//tbd:api the pool state the prof workspace-attribution test and the pooling toggle test branch on
func PoolingEnabled() bool { return !defaultPool.disabled.Load() }

// debugPoison, when set, makes every Release fill the buffer with NaN
// before recycling it.
var debugPoison atomic.Bool

// SetDebugPoisonReleased enables or disables release-time buffer
// poisoning and reports the previous setting. With poisoning on, any
// caller that retains a tensor past its release — e.g. keeping a layer
// output across training steps, which the recycling contract forbids
// (see layers.Layer) — reads NaNs instead of silently stale or
// overwritten data, so use-after-release bugs surface immediately in
// tests. Poisoning is off by default; it costs a full write of every
// released buffer.
//
//tbd:api test knob: the pinned-trajectory tests run with released buffers poisoned
func SetDebugPoisonReleased(on bool) bool {
	return debugPoison.Swap(on)
}

// PoolCounters is a point-in-time copy of the shared pool's cumulative
// counters. Readers that compare two moments (benchmarks, profiler spans)
// should take snapshots and Sub them instead of re-reading the live
// package-level counters, which keep advancing under concurrent traffic
// and would tear a multi-counter read.
type PoolCounters struct {
	Gets, Hits, Puts   uint64
	PackGets, PackHits uint64
}

// PoolStatsSnapshot returns a copy of all pool counters (tensor buckets
// and pack-scratch buckets) at one moment.
func PoolStatsSnapshot() PoolCounters {
	return PoolCounters{
		Gets:     defaultPool.gets.Load(),
		Hits:     defaultPool.hits.Load(),
		Puts:     defaultPool.puts.Load(),
		PackGets: defaultPool.packGets.Load(),
		PackHits: defaultPool.packHits.Load(),
	}
}

// Sub returns the counter deltas accumulated since prev.
func (c PoolCounters) Sub(prev PoolCounters) PoolCounters {
	return PoolCounters{
		Gets:     c.Gets - prev.Gets,
		Hits:     c.Hits - prev.Hits,
		Puts:     c.Puts - prev.Puts,
		PackGets: c.PackGets - prev.PackGets,
		PackHits: c.PackHits - prev.PackHits,
	}
}

// PoolRetainedBytes reports the bytes currently parked on the shared
// pool's free lists: recycled tensor buffers and GEMM pack scratch. The
// pack number is the live engine's "workspace" arena in the paper's
// five-category memory breakdown — scratch that exists only to make
// kernels faster — and the profiler samples it for the memory watermark.
func PoolRetainedBytes() (tensorBytes, packBytes int64) {
	p := &defaultPool
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, bucket := range p.buckets {
		for _, t := range bucket {
			tensorBytes += int64(cap(t.data)) * 4
		}
	}
	for _, bucket := range p.packBuckets {
		for _, buf := range bucket {
			packBytes += int64(cap(buf)) * 4
		}
	}
	return tensorBytes, packBytes
}

// getPackBuf and putPackBuf are the package-internal pack-scratch entry
// points over the shared pool.
func getPackBuf(n int) []float32 { return defaultPool.getPack(n) }
func putPackBuf(buf []float32)   { defaultPool.putPack(buf) }
