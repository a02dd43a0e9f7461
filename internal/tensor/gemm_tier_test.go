package tensor

import (
	"math"
	"testing"
)

// Tier-dispatch tests: tier selection plumbing, ULP equivalence of the
// FMA tier against the bit-exact reference, and split invariance within
// the avx2 tier. The assembly/Go cross-check for the 8x8 kernels names
// amd64-only symbols and lives in gemm_asm_amd64_test.go.

func TestGemmTierSelection(t *testing.T) {
	orig := GemmKernelTier()
	t.Cleanup(func() {
		if _, err := SetGemmKernelTier(orig); err != nil {
			t.Fatal(err)
		}
	})
	tiers := GemmKernelTiers()
	if len(tiers) == 0 || tiers[0] != "ref" {
		t.Fatalf("GemmKernelTiers() = %v, want ref first", tiers)
	}
	for _, name := range tiers {
		prev, err := SetGemmKernelTier(name)
		if err != nil {
			t.Fatalf("SetGemmKernelTier(%q): %v", name, err)
		}
		if prev == "" {
			t.Fatalf("SetGemmKernelTier(%q) returned empty prev", name)
		}
		if got := GemmKernelTier(); got != name {
			t.Fatalf("GemmKernelTier() = %q after selecting %q", got, name)
		}
	}
	if _, err := SetGemmKernelTier("avx512"); err == nil {
		t.Fatal("unknown tier accepted")
	}
	if got := GemmKernelTier(); got != tiers[len(tiers)-1] {
		t.Fatalf("failed SetGemmKernelTier changed the tier to %q", got)
	}
	bitExact := BitExactGemmTier()
	if bitExact != "ref" && bitExact != "sse" {
		t.Fatalf("BitExactGemmTier() = %q", bitExact)
	}
}

// ulpDiff32 returns the distance between two float32s in units of
// representable values, treating -0 and +0 as equal and NaNs as
// infinitely far from everything (including each other).
func ulpDiff32(a, b float32) uint64 {
	if math.IsNaN(float64(a)) || math.IsNaN(float64(b)) {
		return math.MaxUint64
	}
	return uint64(absInt64(floatRank(a) - floatRank(b)))
}

// floatRank maps float32 bit patterns onto a line where adjacent
// representable values differ by 1.
func floatRank(f float32) int64 {
	bits := math.Float32bits(f)
	if bits&0x80000000 != 0 {
		return -int64(bits & 0x7fffffff)
	}
	return int64(bits)
}

func absInt64(v int64) int64 {
	if v < 0 {
		return -v
	}
	return v
}

// tierEquivShapes exercises full tiles, row tails, ragged columns, the
// narrow-shape fallback onto the 4x4 path, and (the last two) reductions
// that cross the wide driver's k-block boundary.
var tierEquivShapes = [][3]int{
	{8, 8, 16}, {8, 2, 8}, {9, 9, 9}, {16, 64, 16}, {17, 31, 23},
	{37, 53, 41}, {64, 128, 96}, {8, 515, 8}, {33, 129, 65}, {40, 7, 40},
	{64, 600, 72}, {256, 1024, 264},
}

// TestAVX2TierMatchesRefULP holds the FMA tier to the documented
// equivalence bound against the reference kernels, for every layout and
// accumulate mode. FMA fuses the multiply-add rounding, so exact equality
// is impossible; the bound is gemmFMAMaxULP with gemmFMAAbsTol absorbing
// near-zero cancellation (see tier.go).
func TestAVX2TierMatchesRefULP(t *testing.T) {
	forceGemmTier(t, "avx2")
	defer SetParallelism(1)
	rng := NewRNG(51)
	var maxULP uint64
	for _, workers := range []int{1, 3} {
		SetParallelism(workers)
		for _, s := range tierEquivShapes {
			n, k, m := s[0], s[1], s[2]
			for lay := layPlain; lay <= layTransB; lay++ {
				a := make([]float32, n*k)
				var b []float32
				if lay == layTransB {
					b = make([]float32, m*k)
				} else {
					b = make([]float32, k*m)
				}
				fillRand(rng, a)
				fillRand(rng, b)
				seed := make([]float32, n*m)
				fillRand(rng, seed)
				for _, accum := range []bool{false, true} {
					want := append([]float32(nil), seed...)
					got := append([]float32(nil), seed...)
					refGEMM(want, a, b, n, k, m, lay, accum)
					gemmParallel(got, a, b, n, k, m, lay, accum, nil)
					for i := range want {
						d := ulpDiff32(want[i], got[i])
						if d <= gemmFMAMaxULP {
							if d > maxULP {
								maxULP = d
							}
							continue
						}
						if diff := math.Abs(float64(want[i]) - float64(got[i])); diff <= gemmFMAAbsTol {
							continue
						}
						t.Fatalf("lay=%d accum=%v shape=%v workers=%d: [%d] avx2=%v ref=%v (%d ULP)",
							lay, accum, s, workers, i, got[i], want[i], d)
					}
				}
			}
		}
	}
	t.Logf("max observed ULP distance: %d (bound %d)", maxULP, gemmFMAMaxULP)
}

// TestAVX2ParallelMatchesSerial pins split invariance within the FMA
// tier: the 8-aligned worker splits and fixed per-element reduction
// orders make parallel runs bit-identical to serial ones, even though the
// tier is not bit-identical to ref.
func TestAVX2ParallelMatchesSerial(t *testing.T) {
	forceGemmTier(t, "avx2")
	defer SetParallelism(1)
	rng := NewRNG(52)
	for _, s := range tierEquivShapes {
		n, k, m := s[0], s[1], s[2]
		a := RandNormal(rng, 0, 1, n, k)
		b := RandNormal(rng, 0, 1, k, m)
		at := Transpose(a)
		bt := Transpose(b)

		SetParallelism(1)
		serial := [3]*Tensor{MatMul(a, b), MatMulTransA(at, b), MatMulTransB(a, bt)}
		for _, workers := range []int{2, 3, 7} {
			SetParallelism(workers)
			parallel := [3]*Tensor{MatMul(a, b), MatMulTransA(at, b), MatMulTransB(a, bt)}
			names := [3]string{"MatMul", "MatMulTransA", "MatMulTransB"}
			for i := range serial {
				if !Equal(serial[i], parallel[i], 0) {
					t.Fatalf("%s %v workers=%d: parallel differs from serial under avx2", names[i], s, workers)
				}
			}
		}
	}
}
