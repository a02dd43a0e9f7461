package tensor

import (
	"runtime"
	"testing"
)

func TestSetParallelismClamps(t *testing.T) {
	defer SetParallelism(1)
	if got := SetParallelism(0); got != 1 {
		t.Fatalf("SetParallelism(0) = %d", got)
	}
	if got := SetParallelism(1 << 20); got != maxParallelism() {
		t.Fatalf("SetParallelism(huge) = %d, want %d", got, maxParallelism())
	}
	if Parallelism() != maxParallelism() {
		t.Fatal("Parallelism() did not reflect the setting")
	}
	if maxParallelism() < runtime.NumCPU() || maxParallelism() < 8 {
		t.Fatalf("maxParallelism() = %d, want >= max(NumCPU, 8)", maxParallelism())
	}
}

func TestMatMulParallelMatchesSerial(t *testing.T) {
	defer SetParallelism(1)
	rng := NewRNG(1)
	a := RandNormal(rng, 0, 1, 64, 48)
	b := RandNormal(rng, 0, 1, 48, 32)
	want := MatMul(a, b)
	for _, workers := range []int{1, 2, 4} {
		SetParallelism(workers)
		got := MatMul(a, b)
		if !Equal(got, want, 0) {
			t.Fatalf("parallel (%d workers) differs from serial", workers)
		}
	}
}

func TestConv2DParallelMatchesSerial(t *testing.T) {
	defer SetParallelism(1)
	rng := NewRNG(2)
	x := RandNormal(rng, 0, 1, 7, 3, 9, 9)
	w := RandNormal(rng, 0, 0.5, 5, 3, 3, 3)
	x1 := RandNormal(rng, 0, 1, 1, 3, 9, 9)
	want, want1 := Conv2D(x, w, 2, 1), Conv2D(x1, w, 2, 1)
	SetParallelism(4)
	got := Conv2D(x, w, 2, 1)
	if !Equal(got, want, 0) {
		t.Fatal("parallel conv differs from serial")
	}
	// Batch of one falls back to serial.
	if !Equal(Conv2D(x1, w, 2, 1), want1, 0) {
		t.Fatal("single-sample fallback differs")
	}
}

func TestParallelRowsCoversRange(t *testing.T) {
	defer SetParallelism(1)
	SetParallelism(4)
	hit := make([]int32, 100)
	parallelRows(100, 1, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			hit[i]++
		}
	})
	for i, h := range hit {
		if h != 1 {
			t.Fatalf("row %d covered %d times", i, h)
		}
	}
	// Tiny ranges run serially without loss.
	count := 0
	parallelRows(3, 8, func(lo, hi int) { count += hi - lo })
	if count != 3 {
		t.Fatalf("small range covered %d rows", count)
	}
}

// withWorkers runs f once per worker count, restoring serial mode after.
func withWorkers(t *testing.T, counts []int, f func(workers int)) {
	t.Helper()
	defer SetParallelism(1)
	for _, w := range counts {
		SetParallelism(w)
		f(w)
	}
}

// TestTransposeGEMMsParallelMatchSerial pins bit-identical parallel
// dispatch for the two transpose GEMMs across edge shapes: N=1 (no split
// possible), K=1 (remainder loop only), and block-size non-divisible dims.
func TestTransposeGEMMsParallelMatchSerial(t *testing.T) {
	rng := NewRNG(21)
	shapes := [][3]int{{1, 9, 7}, {6, 1, 5}, {67, 13, 5}, {33, 129, 17}, {16, 8, 1}}
	for _, s := range shapes {
		n, k, m := s[0], s[1], s[2]
		at := RandNormal(rng, 0, 1, k, n)
		a := RandNormal(rng, 0, 1, n, k)
		b := RandNormal(rng, 0, 1, k, m)
		bt := RandNormal(rng, 0, 1, m, k)
		SetParallelism(1)
		wantA := MatMulTransA(at, b)
		wantB := MatMulTransB(a, bt)
		withWorkers(t, []int{2, 3, 5}, func(workers int) {
			if !Equal(MatMulTransA(at, b), wantA, 0) {
				t.Fatalf("MatMulTransA %v: %d workers differ from serial", s, workers)
			}
			if !Equal(MatMulTransB(a, bt), wantB, 0) {
				t.Fatalf("MatMulTransB %v: %d workers differ from serial", s, workers)
			}
		})
	}
}

// TestIm2ColCol2ImParallelMatchSerial covers the conv lowering pair across
// padding/stride combinations, including zero-pad and batch-of-one.
func TestIm2ColCol2ImParallelMatchSerial(t *testing.T) {
	rng := NewRNG(22)
	cases := []struct{ n, c, h, w, kh, kw, stride, pad int }{
		{1, 1, 5, 5, 3, 3, 1, 0},
		{2, 3, 9, 7, 3, 3, 1, 1},
		{4, 2, 8, 8, 2, 2, 2, 0},
		{3, 5, 11, 11, 5, 5, 2, 2},
		{7, 1, 6, 6, 3, 1, 1, 1},
		// Kernel wider than the padded input (k > w+pad): the stride-1
		// fast path must clamp its copy span instead of panicking.
		{1, 1, 1, 1, 5, 5, 1, 2},
		{2, 2, 3, 1, 3, 5, 1, 2},
		{2, 2, 1, 3, 5, 3, 1, 2},
	}
	for _, cse := range cases {
		x := RandNormal(rng, 0, 1, cse.n, cse.c, cse.h, cse.w)
		SetParallelism(1)
		wantCols := Im2Col(x, cse.kh, cse.kw, cse.stride, cse.pad)
		grad := RandNormal(rng, 0, 1, wantCols.Shape()...)
		wantIm := Col2Im(grad, cse.n, cse.c, cse.h, cse.w, cse.kh, cse.kw, cse.stride, cse.pad)
		withWorkers(t, []int{2, 3, 5}, func(workers int) {
			if !Equal(Im2Col(x, cse.kh, cse.kw, cse.stride, cse.pad), wantCols, 0) {
				t.Fatalf("Im2Col %+v: %d workers differ from serial", cse, workers)
			}
			got := Col2Im(grad, cse.n, cse.c, cse.h, cse.w, cse.kh, cse.kw, cse.stride, cse.pad)
			if !Equal(got, wantIm, 0) {
				t.Fatalf("Col2Im %+v: %d workers differ from serial", cse, workers)
			}
		})
	}
}

// naiveIm2Col is the obviously-correct per-element reference for Im2Col,
// used to check the stride-1 fast path's border clamping.
func naiveIm2Col(x *Tensor, kh, kw, stride, pad int) *Tensor {
	n, c, h, w := x.Dim(0), x.Dim(1), x.Dim(2), x.Dim(3)
	oh, ow := ConvOut(h, kh, stride, pad), ConvOut(w, kw, stride, pad)
	out := New(n, c*kh*kw, oh*ow)
	for b := 0; b < n; b++ {
		for ch := 0; ch < c; ch++ {
			for ky := 0; ky < kh; ky++ {
				for kx := 0; kx < kw; kx++ {
					row := (ch*kh+ky)*kw + kx
					for oy := 0; oy < oh; oy++ {
						for ox := 0; ox < ow; ox++ {
							iy, ix := oy*stride+ky-pad, ox*stride+kx-pad
							if iy >= 0 && iy < h && ix >= 0 && ix < w {
								out.Set(x.At(b, ch, iy, ix), b, row, oy*ow+ox)
							}
						}
					}
				}
			}
		}
	}
	return out
}

// naiveCol2Im is the per-element scatter-add reference for Col2Im; it
// accumulates in the same (colIdx, oy, ox) order as col2imRange, so the
// comparison can be exact.
func naiveCol2Im(cols *Tensor, n, c, h, w, kh, kw, stride, pad int) *Tensor {
	oh, ow := ConvOut(h, kh, stride, pad), ConvOut(w, kw, stride, pad)
	out := New(n, c, h, w)
	for b := 0; b < n; b++ {
		for ch := 0; ch < c; ch++ {
			for ky := 0; ky < kh; ky++ {
				for kx := 0; kx < kw; kx++ {
					row := (ch*kh+ky)*kw + kx
					for oy := 0; oy < oh; oy++ {
						for ox := 0; ox < ow; ox++ {
							iy, ix := oy*stride+ky-pad, ox*stride+kx-pad
							if iy >= 0 && iy < h && ix >= 0 && ix < w {
								out.Set(out.At(b, ch, iy, ix)+cols.At(b, row, oy*ow+ox), b, ch, iy, ix)
							}
						}
					}
				}
			}
		}
	}
	return out
}

// TestConvLoweringWideKernel pins the kernel-wider-than-padded-input
// shapes (k > w+pad+1 and k > h+pad+1) that the stride-1 fast paths must
// clamp: im2col/col2im against the naive reference, and Conv2D
// forward+backward parallel against serial. The seed's generic loops
// handled these shapes; the fast paths must keep handling them.
func TestConvLoweringWideKernel(t *testing.T) {
	rng := NewRNG(26)
	cases := []struct{ n, c, h, w, kh, kw, stride, pad int }{
		{1, 1, 1, 1, 5, 5, 1, 2},
		{2, 2, 3, 1, 3, 5, 1, 2},
		{2, 2, 1, 3, 5, 3, 1, 2},
		{1, 3, 2, 2, 5, 5, 1, 2},
	}
	for _, cse := range cases {
		x := RandNormal(rng, 0, 1, cse.n, cse.c, cse.h, cse.w)
		wt := RandNormal(rng, 0, 0.5, 2, cse.c, cse.kh, cse.kw)
		SetParallelism(1)
		cols := Im2Col(x, cse.kh, cse.kw, cse.stride, cse.pad)
		if !Equal(cols, naiveIm2Col(x, cse.kh, cse.kw, cse.stride, cse.pad), 0) {
			t.Fatalf("Im2Col %+v differs from naive reference", cse)
		}
		grad := RandNormal(rng, 0, 1, cols.Shape()...)
		im := Col2Im(grad, cse.n, cse.c, cse.h, cse.w, cse.kh, cse.kw, cse.stride, cse.pad)
		if !Equal(im, naiveCol2Im(grad, cse.n, cse.c, cse.h, cse.w, cse.kh, cse.kw, cse.stride, cse.pad), 0) {
			t.Fatalf("Col2Im %+v differs from naive reference", cse)
		}
		y := Conv2D(x, wt, cse.stride, cse.pad)
		gy := RandNormal(rng, 0, 1, y.Shape()...)
		gx, gw := Conv2DBackward(x, wt, gy, cse.stride, cse.pad)
		withWorkers(t, []int{2, 3}, func(workers int) {
			if !Equal(Conv2D(x, wt, cse.stride, cse.pad), y, 0) {
				t.Fatalf("Conv2D %+v: %d workers differ from serial", cse, workers)
			}
			gx2, gw2 := Conv2DBackward(x, wt, gy, cse.stride, cse.pad)
			if !Equal(gx2, gx, 0) || !Equal(gw2, gw, 0) {
				t.Fatalf("Conv2DBackward %+v: %d workers differ from serial", cse, workers)
			}
		})
	}
}

// TestElementwiseParallelMatchesSerial pins the chunked elementwise ops.
func TestElementwiseParallelMatchesSerial(t *testing.T) {
	rng := NewRNG(23)
	n := 3 * minElemsPerWorker // forces multi-chunk dispatch
	a := RandNormal(rng, 0, 1, n)
	b := RandNormal(rng, 1, 1, n)
	SetParallelism(1)
	wantAdd, wantMul, wantDiv := Add(a, b), Mul(a, b), Div(a, b)
	acc := a.Clone()
	AXPY(0.5, b, acc)
	withWorkers(t, []int{2, 5}, func(workers int) {
		if !Equal(Add(a, b), wantAdd, 0) || !Equal(Mul(a, b), wantMul, 0) || !Equal(Div(a, b), wantDiv, 0) {
			t.Fatalf("elementwise op differs at %d workers", workers)
		}
		acc2 := a.Clone()
		AXPY(0.5, b, acc2)
		if !Equal(acc2, acc, 0) {
			t.Fatalf("AXPY differs at %d workers", workers)
		}
	})
}

// TestBatchMatMulParallelMatchesSerial covers the batch split.
func TestBatchMatMulParallelMatchesSerial(t *testing.T) {
	rng := NewRNG(24)
	a := RandNormal(rng, 0, 1, 5, 7, 11)
	b := RandNormal(rng, 0, 1, 5, 11, 3)
	SetParallelism(1)
	want := BatchMatMul(a, b)
	withWorkers(t, []int{2, 4}, func(workers int) {
		if !Equal(BatchMatMul(a, b), want, 0) {
			t.Fatalf("BatchMatMul differs at %d workers", workers)
		}
	})
}

// TestSetParallelismConcurrentWithOps is the -race regression for the old
// package-global worker count: hammer SetParallelism while GEMMs run and
// verify results stay bit-identical to serial.
func TestSetParallelismConcurrentWithOps(t *testing.T) {
	defer SetParallelism(1)
	rng := NewRNG(25)
	a := RandNormal(rng, 0, 1, 40, 30)
	b := RandNormal(rng, 0, 1, 30, 20)
	want := MatMul(a, b)

	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		w := 1
		for {
			select {
			case <-stop:
				return
			default:
				SetParallelism(1 + w%4)
				w++
			}
		}
	}()
	for i := 0; i < 200; i++ {
		if got := MatMul(a, b); !Equal(got, want, 0) {
			close(stop)
			<-done
			t.Fatalf("MatMul under concurrent SetParallelism differs at iter %d", i)
		}
	}
	close(stop)
	<-done
}

func BenchmarkMatMulParallelSpeedup(b *testing.B) {
	rng := NewRNG(3)
	a := RandNormal(rng, 0, 1, 256, 256)
	c := RandNormal(rng, 0, 1, 256, 256)
	b.Run("serial", func(b *testing.B) {
		SetParallelism(1)
		for i := 0; i < b.N; i++ {
			MatMul(a, c)
		}
	})
	b.Run("parallel", func(b *testing.B) {
		SetParallelism(runtime.NumCPU())
		defer SetParallelism(1)
		for i := 0; i < b.N; i++ {
			MatMul(a, c)
		}
	})
}
