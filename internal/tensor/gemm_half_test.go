package tensor

import (
	"math"
	"testing"
)

// halfGemmShapes covers single-sample serving rows (n=1), padded row
// tails, exact tiles, ragged columns, k past one block, and m < 8 (an
// empty panel: every column is an edge column).
var halfGemmShapes = [][3]int{
	{1, 16, 8}, {1, 64, 64}, {3, 9, 13}, {5, 31, 8}, {8, 8, 8},
	{8, 128, 65}, {17, 53, 40}, {32, 256, 256}, {4, 16, 5}, {13, 300, 27},
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

// quantized returns w rounded through half, the values an fp16 frozen
// matrix of w holds.
func quantized(w *Tensor) *Tensor {
	return FromSlice(DecodeHalf(EncodeHalf(w.Data())), w.Shape()...)
}

// TestMatMulHalfMatchesFloat32 holds the fp16 frozen GEMM to the fp32
// GEMM over the same quantized weights: quantization is the only
// intended numeric change, so the unfrozen fp32 GEMM over the quantized
// values must agree within the FMA equivalence bound.
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
			h := Freeze(w, true)
			wq := quantized(w)
			for _, act := range []ActKind{ActNone, ActReLU, ActTanh} {
				want := MatMulBiasAct(a, wq, bias, act)
				got := MatMulFrozenBiasAct(a, h, bias, act)
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

// TestMatMulHalfFastMatchesWiden compares the fp16 panel path against the
// unpack fallback on the same FrozenMatrix, by switching tiers. Skips on
// hosts where only one path exists.
func TestMatMulHalfFastMatchesWiden(t *testing.T) {
	if !haveF16CKernels {
		t.Skip("F16C kernels not installed")
	}
	forceGemmTier(t, "avx2")
	rng := NewRNG(62)
	for _, s := range halfGemmShapes {
		n, k, m := s[0], s[1], s[2]
		a := RandNormal(rng, 0, 1, n, k)
		h := Freeze(RandNormal(rng, 0, 1, k, m), true)
		if _, err := SetGemmKernelTier("avx2"); err != nil {
			t.Fatal(err)
		}
		fast := MatMulFrozenBiasAct(a, h, nil, ActNone)
		if _, err := SetGemmKernelTier("ref"); err != nil {
			t.Fatal(err)
		}
		widen := MatMulFrozenBiasAct(a, h, nil, ActNone)
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

// TestMatMulHalfParallelMatchesSerial pins split invariance for both
// storages: 8-aligned splits, the padded tail and fixed reduction orders
// make the worker count invisible, as for the fp32 tiers.
func TestMatMulHalfParallelMatchesSerial(t *testing.T) {
	defer SetParallelism(1)
	rng := NewRNG(63)
	for _, half := range []bool{false, true} {
		for _, s := range halfGemmShapes {
			n, k, m := s[0], s[1], s[2]
			a := RandNormal(rng, 0, 1, n, k)
			w := Freeze(RandNormal(rng, 0, 1, k, m), half)
			bias := RandNormal(rng, 0, 1, m)
			SetParallelism(1)
			serial := MatMulFrozenBiasAct(a, w, bias, ActReLU)
			for _, workers := range []int{2, 5} {
				SetParallelism(workers)
				parallel := MatMulFrozenBiasAct(a, w, bias, ActReLU)
				if !Equal(serial, parallel, 0) {
					t.Fatalf("half=%v shape=%v workers=%d: frozen GEMM not split-invariant", half, s, workers)
				}
				parallel.Release()
			}
			serial.Release()
		}
	}
}

// TestHalfMatrixQuantizationIdempotent: unpacking an fp16 frozen matrix
// gives the quantized weights exactly, and freezing those again
// reproduces the stored bit patterns (half -> float32 -> half is exact).
func TestHalfMatrixQuantizationIdempotent(t *testing.T) {
	rng := NewRNG(64)
	w := RandNormal(rng, 0, 2, 17, 23)
	h := Freeze(w, true)
	if k, m := h.Shape(); k != 17 || m != 23 {
		t.Fatalf("dims %dx%d", k, m)
	}
	if want := int64(17*16*2 + 17*7*4); h.Bytes() != want {
		t.Fatalf("Bytes() = %d, want %d (a half panel, fp32 edge columns)", h.Bytes(), want)
	}
	got := New(17, 23)
	h.unpack(got.Data())
	if !Equal(got, quantized(w), 0) {
		t.Fatal("unpacked fp16 matrix is not the quantized weights")
	}
	h2 := Freeze(got, true)
	for i := range h.half {
		if h.half[i] != h2.half[i] {
			t.Fatalf("[%d] requantized %#04x != stored %#04x", i, h2.half[i], h.half[i])
		}
	}
}

// TestFrozenUnpackRoundTrip: an fp32 frozen matrix is k·m·4 bytes and
// unpacks to the weights it was built from, at every ragged width and
// across k-block boundaries.
func TestFrozenUnpackRoundTrip(t *testing.T) {
	rng := NewRNG(66)
	for _, s := range [][2]int{{1, 1}, {7, 5}, {9, 8}, {256, 13}, {257, 512}, {600, 31}} {
		w := RandNormal(rng, 0, 1, s[0], s[1])
		f := Freeze(w, false)
		if want := int64(4 * s[0] * s[1]); f.Bytes() != want {
			t.Fatalf("%v: Bytes() = %d, want %d", s, f.Bytes(), want)
		}
		got := New(s[0], s[1])
		f.unpack(got.Data())
		if !Equal(got, w, 0) {
			t.Fatalf("%v: unpacked matrix differs from the original", s)
		}
	}
}

// TestFrozenTilesMatchUnfrozen: on avx2, output rows in full 8-row tiles
// of an fp32 frozen GEMM are the unfrozen wide GEMM's bits (same panel,
// kernels, edge order and epilogue). Rows past the last full tile are
// not compared: the unfrozen GEMM runs them through the reference kernels.
func TestFrozenTilesMatchUnfrozen(t *testing.T) {
	forceGemmTier(t, "avx2")
	defer SetParallelism(1)
	rng := NewRNG(67)
	shapes := [][3]int{{32, 256, 512}, {32, 512, 10}, {64, 300, 203}, {13, 512, 512}, {40, 513, 72}}
	for _, workers := range []int{1, 2} {
		SetParallelism(workers)
		for _, s := range shapes {
			n, k, m := s[0], s[1], s[2]
			a := RandNormal(rng, 0, 1, n, k)
			w := RandNormal(rng, 0, 1, k, m)
			bias := RandNormal(rng, 0, 1, m)
			f := Freeze(w, false)
			for _, act := range []ActKind{ActNone, ActReLU} {
				want := MatMulBiasAct(a, w, bias, act)
				got := MatMulFrozenBiasAct(a, f, bias, act)
				full := (n &^ 7) * m
				if hashBits(got.Data()[:full]) != hashBits(want.Data()[:full]) {
					t.Fatalf("shape=%v act=%v workers=%d: full-tile rows differ from the unfrozen GEMM", s, act, workers)
				}
				got.Release()
				want.Release()
			}
		}
	}
}

// TestFrozenRowBitsIndependentOfBatch: on the panel path, a row's output
// bits do not depend on how many rows share its batch or where it sits:
// for n = 1..33, in both storages, every row of an n-row batch equals
// that row computed alone. (The unfrozen GEMM sends rows past the last
// full tile to different kernels, so its answer depends on occupancy.)
func TestFrozenRowBitsIndependentOfBatch(t *testing.T) {
	forceGemmTier(t, "avx2")
	const k, m, pool = 256, 74, 66
	rng := NewRNG(68)
	a := RandNormal(rng, 0, 1, pool, k)
	w := RandNormal(rng, 0, 0.1, k, m)
	bias := RandNormal(rng, 0, 1, m)
	for _, half := range []bool{false, true} {
		if half && !GemmHalfFast() {
			t.Log("no F16C: the fp16 matrix runs the unpack fallback; skipping fp16")
			continue
		}
		f := Freeze(w, half)
		alone := make([][]float32, pool)
		for r := range alone {
			x := FromSlice(a.Data()[r*k:(r+1)*k], 1, k)
			alone[r] = append([]float32(nil), MatMulFrozenBiasAct(x, f, bias, ActReLU).Data()...)
		}
		for n := 1; n <= 33; n++ {
			start := n // row r of the pool sits at position r-n of this batch
			x := FromSlice(a.Data()[start*k:(start+n)*k], n, k)
			out := MatMulFrozenBiasAct(x, f, bias, ActReLU)
			for i := 0; i < n; i++ {
				if hashBits(out.Data()[i*m:(i+1)*m]) != hashBits(alone[start+i]) {
					t.Fatalf("half=%v n=%d: row %d (position %d) differs from the row computed alone", half, n, start+i, i)
				}
			}
			out.Release()
		}
	}
}

// TestFrozenMatchesUnfrozenOnBitExactTiers: under ref and sse the frozen
// matrix is unpacked and the ordinary GEMM runs, so fp32 storage gives
// the unfrozen GEMM's bits and fp16 storage the unfrozen GEMM's bits on
// the quantized weights, at every shape and split.
func TestFrozenMatchesUnfrozenOnBitExactTiers(t *testing.T) {
	defer SetParallelism(1)
	for _, tier := range []string{"ref", "sse"} {
		t.Run(tier, func(t *testing.T) {
			forceGemmTier(t, tier)
			rng := NewRNG(69)
			for _, workers := range []int{1, 3} {
				SetParallelism(workers)
				for _, s := range halfGemmShapes {
					n, k, m := s[0], s[1], s[2]
					a := RandNormal(rng, 0, 1, n, k)
					w := RandNormal(rng, 0, 1, k, m)
					bias := RandNormal(rng, 0, 1, m)
					for _, half := range []bool{false, true} {
						ref := w
						if half {
							ref = quantized(w)
						}
						want := MatMulBiasAct(a, ref, bias, ActReLU)
						got := MatMulFrozenBiasAct(a, Freeze(w, half), bias, ActReLU)
						if !Equal(got, want, 0) {
							t.Fatalf("half=%v shape=%v workers=%d: frozen differs from unfrozen", half, s, workers)
						}
						got.Release()
						want.Release()
					}
				}
			}
		})
	}
}

// TestFrozenGemmAllocatesNothing: a warmed frozen GEMM, full tiles or a
// padded tail, takes everything it needs from the pool.
func TestFrozenGemmAllocatesNothing(t *testing.T) {
	rng := NewRNG(70)
	bias := RandNormal(rng, 0, 1, 40)
	for _, half := range []bool{false, true} {
		f := Freeze(RandNormal(rng, 0, 1, 64, 40), half)
		for _, n := range []int{32, 13} {
			a := RandNormal(rng, 0, 1, n, 64)
			if allocs := testing.AllocsPerRun(20, func() {
				MatMulFrozenBiasAct(a, f, bias, ActReLU).Release()
			}); allocs != 0 {
				t.Fatalf("half=%v n=%d: %.1f allocations a warmed frozen GEMM", half, n, allocs)
			}
		}
	}
}
