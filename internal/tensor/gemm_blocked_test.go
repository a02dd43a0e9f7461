package tensor

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"
)

// The wide driver's k-loop (gemm_wide.go) claims more than split
// invariance: on the avx2 tier a k-blocked GEMM continues each element's
// FMA chain through dst, so its output bits are the ones the unblocked
// driver of the parent commit produced. These tests pin that three ways —
// against hashes computed on the parent commit, against a single-pass
// copy of the parent's loop kept below, and (loosely) against ref — all
// under the forced avx2 tier, skipped where the assembly is not installed.

// gemmSinglePassWide is the wide driver as it was before the k-loop: one
// full-k B panel (block depth k), one pass of the layout's kernel per
// 8-row tile. It is the reference the blocked nest must reproduce bit for
// bit.
func gemmSinglePassWide(dst, a, b []float32, n, k, m int, lay gemmLayout, accum bool, ep *epilogue) {
	m8 := m &^ 7
	bp := make([]float32, k*m8)
	packBRangeWide(bp, b, k, m, k, lay, 0, m8)
	ap := make([]float32, microMW*k)
	kern := kernelTree8x8
	if lay == layTransB {
		kern = kernelSeq8x8
	}
	i0 := 0
	for ; i0+microMW <= n; i0 += microMW {
		packATileWide(ap, a, n, k, i0, 0, k, lay)
		for j0 := 0; j0 < m8; j0 += microNW {
			kern(dst[i0*m+j0:], m, ap, bp[j0*k:], k, accum)
		}
		gemmEdgeCols(dst, a, b, n, k, m, i0, i0+microMW, lay, accum, m8)
		applyEpilogueRows(dst, m, i0, i0+microMW, ep)
	}
	if i0 < n {
		gemmRefRange(dst, a, b, n, k, m, lay, accum, i0, n)
		applyEpilogueRows(dst, m, i0, n, ep)
	}
}

// refGEMMEpilogue is refGEMM followed by the unfused epilogue pass.
func refGEMMEpilogue(dst, a, b []float32, n, k, m int, lay gemmLayout, accum bool, ep *epilogue) {
	refGEMM(dst, a, b, n, k, m, lay, accum)
	applyEpilogueRows(dst, m, 0, n, ep)
}

// hashBits is fnv64a over the little-endian bit patterns of xs.
func hashBits(xs []float32) uint64 {
	h := fnv.New64a()
	var buf [4]byte
	for _, v := range xs {
		binary.LittleEndian.PutUint32(buf[:], math.Float32bits(v))
		h.Write(buf[:])
	}
	return h.Sum64()
}

// bitsEqual compares two float32 slices by bit pattern, so NaNs compare
// equal to themselves and -0 differs from +0.
func bitsEqual(a, b []float32) (int, bool) {
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			return i, false
		}
	}
	return 0, true
}

// blockedGemmCase is one (operands, mode) instance shared by the
// boundary table and the fuzzer: seeded operands, a seeded dst, and the
// epilogue the mode selects.
type blockedGemmCase struct {
	n, k, m int
	lay     gemmLayout
	accum   bool
	ep      *epilogue
	a, b    []float32
	seed    []float32
}

// Modes of a blocked case: accumulate, overwrite, overwrite + bias/ReLU.
const (
	modeAccum = iota
	modeOverwrite
	modeEpilogue
	numModes
)

func newBlockedGemmCase(rng *RNG, n, k, m int, lay gemmLayout, mode int) blockedGemmCase {
	c := blockedGemmCase{n: n, k: k, m: m, lay: lay, accum: mode == modeAccum}
	c.a = make([]float32, n*k) // transA stores aᵀ [k, n], transB bᵀ [m, k]: same lengths
	c.b = make([]float32, k*m)
	c.seed = make([]float32, n*m)
	fillRand(rng, c.a)
	fillRand(rng, c.b)
	fillRand(rng, c.seed)
	if mode == modeEpilogue {
		bias := make([]float32, m)
		fillRand(rng, bias)
		c.ep = &epilogue{colBias: bias, act: ActReLU}
	}
	return c
}

// run applies gemm to a fresh copy of the seeded dst.
func (c *blockedGemmCase) run(gemm func(dst, a, b []float32, n, k, m int, lay gemmLayout, accum bool, ep *epilogue)) []float32 {
	dst := append([]float32(nil), c.seed...)
	gemm(dst, c.a, c.b, c.n, c.k, c.m, c.lay, c.accum, c.ep)
	return dst
}

// parentGemmHashes are fnv64a hashes of the output bits of, in order,
// MatMul, MatMulBiasAct(ReLU), MatMulTransA, MatMulTransB and
// the fp16 GEMM with ReLU (MatMulHalfBiasAct then, an fp16
// MatMulFrozenBiasAct now) under the avx2 tier, computed on the commit
// before the wide driver got its k-loop (e621355) with the operands of
// parentGemmOutputs. Equal at parallelism 1 and 2 there as here.
var parentGemmHashes = []struct {
	shape [3]int
	want  [5]uint64
}{
	{[3]int{256, 1024, 1024}, [5]uint64{0x277cadf81c0a60ba, 0x4b793bc7ea39a55c, 0x277cadf81c0a60ba, 0x277cadf81c0a60ba, 0x8f43061a0c9b664c}},
	{[3]int{1024, 256, 1024}, [5]uint64{0xf810f84eb8e631cd, 0x19419e32c54a38ab, 0xf810f84eb8e631cd, 0xf810f84eb8e631cd, 0x4d944e5fe7ac8e2b}},
	{[3]int{37, 777, 203}, [5]uint64{0x12fef9a30e4e8c3a, 0xf0eecafbbb32b07f, 0x12fef9a30e4e8c3a, 0xb4e8250b97d0e9, 0xfae2f116825874ad}},
	{[3]int{64, 513, 72}, [5]uint64{0xe4af3b122fd3a7e5, 0x248b4e41c17c18b0, 0xe4af3b122fd3a7e5, 0xe4af3b122fd3a7e5, 0x3eab870d308cf2e9}},
	{[3]int{256, 300, 1031}, [5]uint64{0xdb67756ab94f0722, 0x91d6563819782b6e, 0xdb67756ab94f0722, 0x92dfb48bc93f49aa, 0x235563a5489fada0}},
}

var parentGemmOps = [5]string{"MatMul", "MatMulBiasAct", "MatMulTransA", "MatMulTransB", "MatMulFrozenBiasAct(fp16)"}

func parentGemmOutputs(i int, s [3]int) [5]uint64 {
	n, k, m := s[0], s[1], s[2]
	rng := NewRNG(uint64(170 + i))
	a := RandNormal(rng, 0, 1, n, k)
	b := RandNormal(rng, 0, 1, k, m)
	bias := RandNormal(rng, 0, 1, m)
	at, bt, h := Transpose(a), Transpose(b), Freeze(b, true)
	return [5]uint64{
		hashBits(MatMul(a, b).Data()),
		hashBits(MatMulBiasAct(a, b, bias, ActReLU).Data()),
		hashBits(MatMulTransA(at, b).Data()),
		hashBits(MatMulTransB(a, bt).Data()),
		hashBits(MatMulFrozenBiasAct(a, h, bias, ActReLU).Data()),
	}
}

func TestBlockedGemmMatchesParentCommit(t *testing.T) {
	forceGemmTier(t, "avx2")
	defer SetParallelism(1)
	for _, workers := range []int{1, 2} {
		SetParallelism(workers)
		for i, c := range parentGemmHashes {
			got := parentGemmOutputs(i, c.shape)
			for op := range got {
				if op == 4 && !GemmHalfFast() {
					continue // widened to fp32 first: a different, also deterministic, path
				}
				if got[op] != c.want[op] {
					t.Errorf("%s %v workers=%d: output hash %#x, parent commit had %#x",
						parentGemmOps[op], c.shape, workers, got[op], c.want[op])
				}
			}
		}
	}
}

// TestConvDWMatchesParentCommit pins the transposed-B + accumulate
// exception: conv dW on a 32x32 image reduces over oh*ow = 1024 > gemmKC
// in one block, and gw's bits are the parent commit's (gx rides along
// through the transposed-A path).
func TestConvDWMatchesParentCommit(t *testing.T) {
	forceGemmTier(t, "avx2")
	defer SetParallelism(1)
	for _, workers := range []int{1, 2} {
		SetParallelism(workers)
		rng := NewRNG(181)
		x := RandNormal(rng, 0, 1, 2, 8, 32, 32)
		w := RandNormal(rng, 0, 1, 16, 8, 3, 3)
		gy := RandNormal(rng, 0, 1, 2, 16, 32, 32)
		gx, gw := Conv2DBackward(x, w, gy, 1, 1)
		if got, want := hashBits(gw.Data()), uint64(0xd988456243bc7823); got != want {
			t.Errorf("workers=%d: gw hash %#x, parent commit had %#x", workers, got, want)
		}
		if got, want := hashBits(gx.Data()), uint64(0x3cfaa424599109b0); got != want {
			t.Errorf("workers=%d: gx hash %#x, parent commit had %#x", workers, got, want)
		}
	}
}

// TestBlockedGemmBoundaries walks k across the block boundaries with
// ragged and exact n and m, every layout and write mode: the blocked
// driver equals the single-pass reference bit for bit and stays inside
// the tier's documented distance from ref.
func TestBlockedGemmBoundaries(t *testing.T) {
	forceGemmTier(t, "avx2")
	rng := NewRNG(171)
	var maxULP uint64
	for _, k := range []int{gemmKC - 1, gemmKC, gemmKC + 1, 2 * gemmKC, 2*gemmKC + 1, 3*gemmKC + 5} {
		for _, n := range []int{8, 9, 37} {
			for _, m := range []int{8, 9, 72, 1031} {
				for lay := layPlain; lay <= layTransB; lay++ {
					for mode := 0; mode < numModes; mode++ {
						c := newBlockedGemmCase(rng, n, k, m, lay, mode)
						got := c.run(gemmParallel)
						want := c.run(gemmSinglePassWide)
						if i, ok := bitsEqual(got, want); !ok {
							t.Fatalf("n=%d k=%d m=%d lay=%d mode=%d: blocked[%d]=%v single-pass=%v",
								n, k, m, lay, mode, i, got[i], want[i])
						}
						ref := c.run(refGEMMEpilogue)
						for i := range ref {
							d := ulpDiff32(ref[i], got[i])
							if d <= gemmFMAMaxULP {
								maxULP = max(maxULP, d)
							} else if math.Abs(float64(ref[i])-float64(got[i])) > gemmFMAAbsTol {
								t.Fatalf("n=%d k=%d m=%d lay=%d mode=%d: [%d] avx2=%v ref=%v (%d ULP)",
									n, k, m, lay, mode, i, got[i], ref[i], d)
							}
						}
					}
				}
			}
		}
	}
	t.Logf("max observed ULP distance from ref: %d (bound %d)", maxULP, gemmFMAMaxULP)
}

// TestGEMMNaNThroughBlocked is TestGEMMNaNThroughPacked for the wide
// driver with the NaN in the third k-block: it must reach dst through two
// seeded continuations exactly where ref and the single-pass loop put it.
func TestGEMMNaNThroughBlocked(t *testing.T) {
	forceGemmTier(t, "avx2")
	n, k, m := 16, 3*gemmKC+5, 24
	for lay := layPlain; lay <= layTransB; lay++ {
		c := newBlockedGemmCase(NewRNG(172), n, k, m, lay, modeOverwrite)
		// Reduction step 2*gemmKC+7 of output row 3 (a is [k, n] under transA).
		if p := 2*gemmKC + 7; lay == layTransA {
			c.a[p*n+3] = nan32()
		} else {
			c.a[3*k+p] = nan32()
		}
		got := c.run(gemmParallel)
		if i, ok := bitsEqual(got, c.run(gemmSinglePassWide)); !ok {
			t.Fatalf("lay=%d: blocked differs from single-pass at %d", lay, i)
		}
		ref := c.run(refGEMMEpilogue)
		for i := range ref {
			if gNaN, wNaN := got[i] != got[i], ref[i] != ref[i]; gNaN != wNaN || gNaN != (i/m == 3) {
				t.Fatalf("lay=%d: NaN placement differs at %d (blocked %v, ref %v)", lay, i, got[i], ref[i])
			}
		}
	}
}

// FuzzGemmBlockedShapes drives the blocked wide driver over arbitrary
// shapes, layouts and write modes at parallelism 1 and 3 against the
// single-pass reference, bit for bit.
func FuzzGemmBlockedShapes(f *testing.F) {
	prev, err := SetGemmKernelTier("avx2")
	if err != nil {
		f.Skipf("tier avx2 unavailable: %v", err)
	}
	f.Cleanup(func() {
		SetParallelism(1)
		if _, err := SetGemmKernelTier(prev); err != nil {
			f.Fatal(err)
		}
	})
	// Seeds straddle KC and 2*KC and hit ragged n and m in every layout
	// and mode.
	f.Add(uint16(8), uint16(gemmKC), uint16(8), uint8(0), uint8(0))
	f.Add(uint16(9), uint16(gemmKC+1), uint16(9), uint8(1), uint8(1))
	f.Add(uint16(37), uint16(gemmKC-1), uint16(72), uint8(2), uint8(2))
	f.Add(uint16(16), uint16(2*gemmKC), uint16(23), uint8(2), uint8(0))
	f.Add(uint16(95), uint16(2*gemmKC+1), uint16(41), uint8(0), uint8(2))
	f.Add(uint16(24), uint16(2*gemmKC-1), uint16(96), uint8(1), uint8(0))
	f.Add(uint16(13), uint16(3*gemmKC+5), uint16(15), uint8(2), uint8(1))
	f.Fuzz(func(t *testing.T, nn, kk, mm uint16, layByte, flags uint8) {
		n, k, m := int(nn)%97, int(kk)%801, int(mm)%97
		if !wideWorthIt(n, k, m) {
			t.Skip("shape does not reach the wide driver")
		}
		lay := gemmLayout(layByte % 3)
		c := newBlockedGemmCase(NewRNG(uint64(n)<<32|uint64(k)<<16|uint64(m)), n, k, m, lay, int(flags)%numModes)
		want := c.run(gemmSinglePassWide)
		for _, workers := range []int{1, 3} {
			SetParallelism(workers)
			got := c.run(gemmParallel)
			if i, ok := bitsEqual(got, want); !ok {
				t.Fatalf("n=%d k=%d m=%d lay=%d flags=%d workers=%d: blocked[%d]=%v single-pass=%v",
					n, k, m, lay, flags, workers, i, got[i], want[i])
			}
		}
	})
}
