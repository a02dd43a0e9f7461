package tensor

import (
	"math"
	"testing"
)

// naiveMatMul is the trusted reference: plain triple loop, no blocking, no
// skips.
func naiveMatMul(a, b *Tensor, transA, transB bool) *Tensor {
	var n, k, m int
	get := func(t *Tensor, i, j int, trans bool) float32 {
		if trans {
			return t.data[j*t.shape[1]+i]
		}
		return t.data[i*t.shape[1]+j]
	}
	if transA {
		k, n = a.shape[0], a.shape[1]
	} else {
		n, k = a.shape[0], a.shape[1]
	}
	if transB {
		m = b.shape[0]
	} else {
		m = b.shape[1]
	}
	out := New(n, m)
	for i := 0; i < n; i++ {
		for j := 0; j < m; j++ {
			var s float64
			for p := 0; p < k; p++ {
				s += float64(get(a, i, p, transA)) * float64(get(b, p, j, transB))
			}
			out.data[i*m+j] = float32(s)
		}
	}
	return out
}

// TestGEMMAgainstNaive sweeps shapes that exercise block boundaries,
// remainder loops (k % 4 != 0, m % 2 != 0), and degenerate dims.
func TestGEMMAgainstNaive(t *testing.T) {
	defer SetParallelism(1)
	rng := NewRNG(11)
	shapes := [][3]int{
		{1, 1, 1}, {1, 7, 3}, {5, 1, 4}, {3, 4, 1},
		{8, 8, 8}, {13, 17, 9}, {31, 129, 33}, {4, 130, 515},
		{67, 13, 5}, {2, 512, 2},
	}
	for _, workers := range []int{1, 3} {
		SetParallelism(workers)
		for _, s := range shapes {
			n, k, m := s[0], s[1], s[2]
			a := RandNormal(rng, 0, 1, n, k)
			b := RandNormal(rng, 0, 1, k, m)
			at := Transpose(a) // [k, n]
			bt := Transpose(b) // [m, k]
			tol := float32(1e-4) * float32(k)
			if got, want := MatMul(a, b), naiveMatMul(a, b, false, false); !Equal(got, want, tol) {
				t.Fatalf("MatMul %v differs from naive (workers=%d)", s, workers)
			}
			if got, want := MatMulTransA(at, b), naiveMatMul(a, b, false, false); !Equal(got, want, tol) {
				t.Fatalf("MatMulTransA %v differs from naive (workers=%d)", s, workers)
			}
			if got, want := MatMulTransB(a, bt), naiveMatMul(a, b, false, false); !Equal(got, want, tol) {
				t.Fatalf("MatMulTransB %v differs from naive (workers=%d)", s, workers)
			}
		}
	}
}

// TestGEMMIntoMatchesAlloc pins that the Into variants overwrite dirty
// destinations and produce bit-identical results to the allocating forms.
func TestGEMMIntoMatchesAlloc(t *testing.T) {
	rng := NewRNG(12)
	a := RandNormal(rng, 0, 1, 9, 14)
	b := RandNormal(rng, 0, 1, 14, 11)
	at := Transpose(a)
	bt := Transpose(b)
	dirty := func(n, m int) *Tensor { return Full(42, n, m) }

	if got := MatMulInto(dirty(9, 11), a, b); !Equal(got, MatMul(a, b), 0) {
		t.Fatal("MatMulInto differs from MatMul")
	}
	if got := MatMulTransAInto(dirty(9, 11), at, b); !Equal(got, MatMulTransA(at, b), 0) {
		t.Fatal("MatMulTransAInto differs from MatMulTransA")
	}
	if got := MatMulTransBInto(dirty(9, 11), a, bt); !Equal(got, MatMulTransB(a, bt), 0) {
		t.Fatal("MatMulTransBInto differs from MatMulTransB")
	}
}

// TestGEMMNaNPropagation pins IEEE semantics the old kernels broke with an
// av == 0 skip: a zero times a NaN must poison the output.
func TestGEMMNaNPropagation(t *testing.T) {
	nan := float32(math.NaN())
	// a has a zero row; b carries a NaN. 0 * NaN = NaN must reach the
	// output row.
	a := FromSlice([]float32{0, 0, 1, 2}, 2, 2)
	b := FromSlice([]float32{nan, 1, 2, 3}, 2, 2)
	if out := MatMul(a, b); !math.IsNaN(float64(out.At(0, 0))) {
		t.Fatalf("MatMul dropped NaN through zero row: got %v", out.At(0, 0))
	}
	at := FromSlice([]float32{0, 1, 0, 2}, 2, 2) // column 0 of aᵀ is zero
	if out := MatMulTransA(at, b); !math.IsNaN(float64(out.At(0, 0))) {
		t.Fatalf("MatMulTransA dropped NaN through zero column: got %v", out.At(0, 0))
	}
	bt := FromSlice([]float32{nan, 2, 1, 3}, 2, 2)
	if out := MatMulTransB(a, bt); !math.IsNaN(float64(out.At(0, 0))) {
		t.Fatalf("MatMulTransB dropped NaN: got %v", out.At(0, 0))
	}
	// NaN anywhere in a also poisons its row.
	an := FromSlice([]float32{nan, 0, 0, 0}, 2, 2)
	bb := FromSlice([]float32{1, 2, 3, 4}, 2, 2)
	out := MatMul(an, bb)
	if !math.IsNaN(float64(out.At(0, 0))) || !math.IsNaN(float64(out.At(0, 1))) {
		t.Fatal("MatMul dropped NaN from a")
	}
	if math.IsNaN(float64(out.At(1, 0))) {
		t.Fatal("NaN leaked into an unrelated row")
	}
}

func TestPoolReusesBuffers(t *testing.T) {
	if !PoolingEnabled() {
		t.Fatal("pooling should be enabled by default")
	}
	var p Pool
	a := p.Get(16, 4)
	buf := a.Data()
	buf[0] = 7
	p.put(a)
	b := p.Get(8, 8) // same element count -> same bucket
	if &b.Data()[0] != &buf[0] {
		t.Fatal("pool did not reuse the released buffer")
	}
	if b.Data()[0] != 0 {
		t.Fatal("reused buffer was not zeroed")
	}
	if b.Dim(0) != 8 || b.Dim(1) != 8 {
		t.Fatalf("reused tensor has shape %v", b.Shape())
	}
}

func TestAcquireReleaseIdempotent(t *testing.T) {
	a := Acquire(32)
	a.Release()
	a.Release() // second release must be a no-op
	x := Acquire(32)
	y := Acquire(32)
	if Aliases(x, y) {
		t.Fatal("double release handed the same buffer out twice")
	}
	// Unpooled tensors and views never enter the pool.
	n := New(32)
	n.Release()
	v := Acquire(4, 8).Reshape(8, 4)
	v.Release()
	g1 := PoolStatsSnapshot().Gets
	_ = Acquire(32)
	g2 := PoolStatsSnapshot().Gets
	if g2 != g1+1 {
		t.Fatalf("PoolStats gets did not advance: %d -> %d", g1, g2)
	}
}

func TestSetPoolingToggle(t *testing.T) {
	prev := SetPooling(false)
	defer SetPooling(prev)
	a := Acquire(64)
	a.Release()
	b := Acquire(64)
	if Aliases(a, b) {
		t.Fatal("disabled pool still reused a buffer")
	}
	SetPooling(true)
	c := Acquire(64)
	c.Release()
	d := Acquire(64)
	if !Aliases(c, d) {
		t.Fatal("re-enabled pool did not reuse a buffer")
	}
	d.Release()
}

func TestAliases(t *testing.T) {
	a := Acquire(4, 4)
	v := a.Reshape(16)
	b := Acquire(4, 4)
	if !Aliases(a, v) {
		t.Fatal("view does not alias its base")
	}
	if Aliases(a, b) {
		t.Fatal("distinct tensors reported aliasing")
	}
	if !Aliases(a, a) {
		t.Fatal("tensor must alias itself")
	}
	if Aliases(a, nil) || Aliases(nil, b) {
		t.Fatal("nil aliasing")
	}
}

// TestConvPooledMatchesUnpooled pins that recycled buffers cannot change
// results: the same conv forward/backward with pooling on and off is
// bit-identical, including across repeated pooled iterations.
func TestConvPooledMatchesUnpooled(t *testing.T) {
	rng := NewRNG(13)
	x := RandNormal(rng, 0, 1, 3, 4, 9, 9)
	w := RandNormal(rng, 0, 0.5, 6, 4, 3, 3)
	gyShape := []int{3, 6, ConvOut(9, 3, 1, 1), ConvOut(9, 3, 1, 1)}
	gy := RandNormal(rng, 0, 1, gyShape...)

	prev := SetPooling(false)
	defer SetPooling(prev)
	wantY := Conv2D(x, w, 1, 1)
	wantGX, wantGW := Conv2DBackward(x, w, gy, 1, 1)

	SetPooling(true)
	for iter := 0; iter < 3; iter++ {
		y := Conv2D(x, w, 1, 1)
		gx, gw := Conv2DBackward(x, w, gy, 1, 1)
		if !Equal(y, wantY, 0) {
			t.Fatalf("pooled conv forward differs at iter %d", iter)
		}
		if !Equal(gx, wantGX, 0) || !Equal(gw, wantGW, 0) {
			t.Fatalf("pooled conv backward differs at iter %d", iter)
		}
		y.Release()
		gx.Release()
		gw.Release()
	}
}
