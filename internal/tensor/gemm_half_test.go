package tensor

import (
	"math"
	"testing"
)

// halfGemmShapes covers single-sample serving rows (n=1), padded row
// tails, exact tiles, ragged columns, and the m<8 widen fallback.
var halfGemmShapes = [][3]int{
	{1, 16, 8}, {1, 64, 64}, {3, 9, 13}, {5, 31, 8}, {8, 8, 8},
	{8, 128, 65}, {17, 53, 40}, {32, 256, 256}, {4, 16, 5},
}

// halfGemmClose applies the fp16 GEMM equivalence criterion: the two
// paths compute identical products of identical (quantized) operands, so
// they differ only by summation order and FMA fusion — the same bound as
// the fp32 tier equivalence.
func halfGemmClose(a, b float32) bool {
	if ulpDiff32(a, b) <= gemmFMAMaxULP {
		return true
	}
	return math.Abs(float64(a)-float64(b)) <= gemmFMAAbsTol
}

// TestMatMulHalfMatchesFloat32 holds the half-storage GEMM to the fp32
// GEMM over the same quantized weights: quantization is the only
// intended numeric change, so re-widening the stored halves and running
// the fp32 path must agree within the FMA equivalence bound.
func TestMatMulHalfMatchesFloat32(t *testing.T) {
	defer SetParallelism(1)
	rng := NewRNG(61)
	for _, workers := range []int{1, 3} {
		SetParallelism(workers)
		for _, s := range halfGemmShapes {
			n, k, m := s[0], s[1], s[2]
			a := RandNormal(rng, 0, 1, n, k)
			w := RandNormal(rng, 0, 1, k, m)
			bias := RandNormal(rng, 0, 1, m)
			h := NewHalfMatrix(w)
			wq := h.Float32() // same quantized values the half path reads
			for _, act := range []ActKind{ActNone, ActReLU, ActTanh} {
				want := MatMulBiasAct(a, wq, bias, act)
				got := MatMulHalfBiasAct(a, h, bias, act)
				for i := range want.Data() {
					wv, gv := want.Data()[i], got.Data()[i]
					if !halfGemmClose(wv, gv) {
						t.Fatalf("shape=%v act=%v workers=%d: [%d] half=%v fp32=%v (%d ULP)",
							s, act, workers, i, gv, wv, ulpDiff32(wv, gv))
					}
				}
				got.Release()
				want.Release()
			}
		}
	}
}

// TestMatMulHalfFastMatchesWiden compares the F16C fast path against the
// widen-to-fp32 fallback on the same HalfMatrix, by switching tiers.
// Skips on hosts where only one path exists.
func TestMatMulHalfFastMatchesWiden(t *testing.T) {
	if !haveF16CKernels {
		t.Skip("F16C kernels not installed")
	}
	forceGemmTier(t, "avx2")
	rng := NewRNG(62)
	for _, s := range halfGemmShapes {
		n, k, m := s[0], s[1], s[2]
		a := RandNormal(rng, 0, 1, n, k)
		w := RandNormal(rng, 0, 1, k, m)
		h := NewHalfMatrix(w)
		if _, err := SetGemmKernelTier("avx2"); err != nil {
			t.Fatal(err)
		}
		fast := MatMulHalfBiasAct(a, h, nil, ActNone)
		if _, err := SetGemmKernelTier("ref"); err != nil {
			t.Fatal(err)
		}
		widen := MatMulHalfBiasAct(a, h, nil, ActNone)
		for i := range fast.Data() {
			fv, wv := fast.Data()[i], widen.Data()[i]
			if !halfGemmClose(fv, wv) {
				t.Fatalf("shape=%v: [%d] fast=%v widen=%v (%d ULP)", s, i, fv, wv, ulpDiff32(fv, wv))
			}
		}
		widen.Release()
		fast.Release()
	}
}

// TestMatMulHalfParallelMatchesSerial pins split invariance for the half
// path: 8-aligned splits and fixed reduction orders make worker count
// invisible, exactly as for the fp32 tiers.
func TestMatMulHalfParallelMatchesSerial(t *testing.T) {
	defer SetParallelism(1)
	rng := NewRNG(63)
	for _, s := range halfGemmShapes {
		n, k, m := s[0], s[1], s[2]
		a := RandNormal(rng, 0, 1, n, k)
		h := NewHalfMatrix(RandNormal(rng, 0, 1, k, m))
		SetParallelism(1)
		serial := MatMulHalfBiasAct(a, h, nil, ActNone)
		for _, workers := range []int{2, 5} {
			SetParallelism(workers)
			parallel := MatMulHalfBiasAct(a, h, nil, ActNone)
			if !Equal(serial, parallel, 0) {
				t.Fatalf("shape=%v workers=%d: half GEMM not split-invariant", s, workers)
			}
			parallel.Release()
		}
		serial.Release()
	}
}

// TestHalfMatrixQuantizationIdempotent: widening and re-quantizing must
// reproduce the stored bit patterns (half -> float32 -> half is exact).
func TestHalfMatrixQuantizationIdempotent(t *testing.T) {
	rng := NewRNG(64)
	w := RandNormal(rng, 0, 2, 17, 23)
	h := NewHalfMatrix(w)
	if h.Rows() != 17 || h.Cols() != 23 {
		t.Fatalf("dims %dx%d", h.Rows(), h.Cols())
	}
	if h.Bytes() != 17*23*2 {
		t.Fatalf("Bytes() = %d, want %d", h.Bytes(), 17*23*2)
	}
	h2 := NewHalfMatrix(h.Float32())
	for i := range h.data {
		if h.data[i] != h2.data[i] {
			t.Fatalf("[%d] requantized %#04x != stored %#04x", i, h2.data[i], h.data[i])
		}
	}
}

// TestHalfPackSeparateSizeClass pins the pool satellite: fp16 B panels
// draw from their own uint16 size classes, counted and retained (at two
// bytes per element) independently of fp32 pack scratch.
func TestHalfPackSeparateSizeClass(t *testing.T) {
	var p Pool
	buf := p.getPackHalf(100)
	if len(buf) != 100 {
		t.Fatalf("getPackHalf(100) returned len %d", len(buf))
	}
	p.putPackHalf(buf)
	buf2 := p.getPackHalf(90)
	if &buf2[0] != &buf[:1][0] {
		t.Fatal("getPackHalf did not reuse the released buffer")
	}
	if gets, hits := p.packHalfGets.Load(), p.packHalfHits.Load(); gets != 2 || hits != 1 {
		t.Fatalf("half pack stats gets=%d hits=%d, want 2/1", gets, hits)
	}
	if g := p.packGets.Load(); g != 0 {
		t.Fatalf("fp32 pack counter moved (%d) on uint16 traffic", g)
	}

	if !GemmHalfFast() {
		t.Skip("fast half path unavailable; shared-pool half counters not exercised")
	}
	s0 := PoolStatsSnapshot()
	rng := NewRNG(65)
	a := RandNormal(rng, 0, 1, 8, 32)
	h := NewHalfMatrix(RandNormal(rng, 0, 1, 32, 16))
	MatMulHalfBiasAct(a, h, nil, ActNone).Release()
	d := PoolStatsSnapshot().Sub(s0)
	if d.PackHalfGets == 0 {
		t.Fatal("fast half GEMM did not request uint16 pack scratch")
	}
}

// Rows returns the first dimension (the reduction length K in a @ w).
func (h *HalfMatrix) Rows() int { return h.rows }

// Cols returns the second dimension (output features M).
func (h *HalfMatrix) Cols() int { return h.cols }

// Float32 widens the stored weights back to a float32 tensor, carrying
// the quantization the round trip through half applied.
func (h *HalfMatrix) Float32() *Tensor {
	out := New(h.rows, h.cols)
	for i, v := range h.data {
		out.data[i] = HalfToFloat32(v)
	}
	return out
}
