package tensor

import (
	"math"
	"testing"
)

// TestPoolReusesReleasedBuffer pins the basic recycle path: a released
// buffer backs the next same-size Acquire, zero-filled.
func TestPoolReusesReleasedBuffer(t *testing.T) {
	a := Acquire(4, 8)
	a.Fill(7)
	d := &a.Data()[0]
	a.Release()
	b := Acquire(4, 8)
	defer b.Release()
	if &b.Data()[0] != d {
		t.Fatal("same-size Acquire after Release did not reuse the buffer")
	}
	for _, v := range b.Data() {
		if v != 0 {
			t.Fatal("recycled buffer not zero-filled")
		}
	}
}

// TestPoolHitAllocatesNothing pins that an Acquire served from the free
// list takes nothing from the Go allocator: the variadic shape stays on
// the caller's stack. The parent commit allocated one object (the shape)
// per call, because checkShape's panics formatted it.
func TestPoolHitAllocatesNothing(t *testing.T) {
	n, c, h, w := 8, 3, 16, 16
	Acquire(n, c, h, w).Release()
	if got := testing.AllocsPerRun(100, func() { Acquire(n, c, h, w).Release() }); got != 0 {
		t.Errorf("a pool-hit Acquire(n, c, h, w) allocates %v objects, want 0", got)
	}
}

// TestPoolDoubleReleaseIsNoOp pins the pooled-flag guard against
// double-free.
func TestPoolDoubleReleaseIsNoOp(t *testing.T) {
	a := Acquire(16)
	a.Release()
	a.Release() // must not panic or re-insert
	b := Acquire(16)
	c := Acquire(16)
	if Aliases(b, c) {
		t.Fatal("double release handed the same buffer out twice")
	}
	b.Release()
	c.Release()
}

// TestDebugPoisonReleased verifies that with poisoning on, a reference
// retained past Release reads NaN — the loud form of the recycling
// contract's use-after-release bug.
func TestDebugPoisonReleased(t *testing.T) {
	prev := SetDebugPoisonReleased(true)
	defer SetDebugPoisonReleased(prev)
	a := Acquire(5)
	a.Fill(3)
	stale := a.Data()
	a.Release()
	for i, v := range stale {
		if !math.IsNaN(float64(v)) {
			t.Fatalf("released buffer element %d = %v, want NaN poison", i, v)
		}
	}
	// A fresh Acquire of the poisoned buffer must still come back zeroed.
	b := Acquire(5)
	defer b.Release()
	for _, v := range b.Data() {
		if v != 0 {
			t.Fatal("poisoned buffer not re-zeroed by Acquire")
		}
	}
}

// TestPoolStatsSnapshotDelta verifies the snapshot/Sub pair tracks pool
// activity without the caller touching the live package counters.
func TestPoolStatsSnapshotDelta(t *testing.T) {
	before := PoolStatsSnapshot()
	a := Acquire(64)
	a.Release()
	b := Acquire(64) // served from the free list
	b.Release()
	d := PoolStatsSnapshot().Sub(before)
	if d.Gets < 2 {
		t.Fatalf("gets delta = %d, want >= 2", d.Gets)
	}
	if d.Hits < 1 {
		t.Fatalf("hits delta = %d, want >= 1", d.Hits)
	}
	if d.Puts < 2 {
		t.Fatalf("puts delta = %d, want >= 2", d.Puts)
	}
	// Tensor traffic must not move the pack counters.
	if d.PackGets != 0 || d.PackHits != 0 {
		t.Fatalf("pack deltas = %d/%d from tensor traffic", d.PackGets, d.PackHits)
	}
}

// TestPoolRetainedBytes checks the free-list byte accounting both ways
// across a release/reacquire cycle.
func TestPoolRetainedBytes(t *testing.T) {
	a := Acquire(1 << 10)
	t0, _ := PoolRetainedBytes()
	a.Release()
	t1, _ := PoolRetainedBytes()
	if t1 < t0+4<<10 {
		t.Fatalf("retained bytes after release: %d -> %d, want +%d", t0, t1, 4<<10)
	}
	b := Acquire(1 << 10)
	defer b.Release()
	t2, _ := PoolRetainedBytes()
	if t2 >= t1 {
		t.Fatalf("retained bytes after reacquire: %d -> %d, want a drop", t1, t2)
	}
}

// Aliases reports whether a and b share backing storage. Reshape produces
// views over the same array, so pointer identity of the first element is
// the aliasing test; empty or nil tensors alias only themselves.
func Aliases(a, b *Tensor) bool {
	if a == nil || b == nil || len(a.data) == 0 || len(b.data) == 0 {
		return a == b
	}
	return &a.data[0] == &b.data[0]
}
