package tensor

import "math"

// 8x8 register-tiled micro-kernels for the AVX2+FMA tier, over the wide
// packed layout built by packATileWide/packBRangeWide (see gemm_wide.go):
//
//	A tile:  ap[p*8 + r] = a(i0+r, pc+p) — plain scalars; the assembly
//	         broadcasts them with VBROADCASTSS, a pure load-port µop, so
//	         unlike the 4x4 SSE layout no lane replication is needed.
//	B strip: bp[p*8 + c] = b(pc+p, j0+c) — one 8-float vector per
//	         reduction step.
//
// A kernel call covers kc reduction steps from pc on: the whole of k, or
// one k-block of the driver's loop, which chains blocks through dst in
// accumulate mode.
//
// Reduction order: every output element is one strictly sequential chain
// of fused multiply-adds over k. The tree/seq split mirrors the 4x4
// kernels but only affects accumulate mode: tree seeds the accumulators
// from dst (plain and transposed-A layouts), seq sums from zero and adds
// dst once at the end (transposed-B). FMA rounds the multiply-add as one
// operation, so this tier is ULP-equivalent to the reference kernels, not
// bit-identical — see gemmFMAMaxULP in tier.go.
//
// The Go fallbacks emulate fused rounding with math.FMA in float64 and a
// final narrowing to float32. That double rounding (exact -> float64 ->
// float32) can differ from the hardware's single rounding to float32 in
// rare tie-straddling cases, so the assembly cross-check test holds the
// two within a small ULP bound instead of exact equality. The fallbacks
// exist for that cross-check and for non-amd64 builds; the avx2 tier is
// only selectable where the assembly is installed.

const (
	// microMW x microNW is the wide register tile: 8 output rows x 8
	// output columns (one AVX vector wide), 8 YMM accumulators live.
	microMW = 8
	microNW = 8
)

var (
	kernelTree8x8 = microTree8x8Go
	kernelSeq8x8  = microSeq8x8Go
	kernelHalf8x8 = microHalf8x8Go
)

// fma32 is a float32 fused multiply-add: a*b+c with a single rounding
// (modulo the float64 double-rounding caveat above).
func fma32(a, b, c float32) float32 {
	return float32(math.FMA(float64(a), float64(b), float64(c)))
}

// microTree8x8Go computes an 8x8 output tile dst[r*ldd+c] (r, c in 0..7)
// from wide-packed panels; accumulate mode seeds the sums from dst.
func microTree8x8Go(dst []float32, ldd int, ap, bp []float32, kc int, accum bool) {
	for r := 0; r < microMW; r++ {
		d := dst[r*ldd : r*ldd+microNW]
		var acc [microNW]float32
		if accum {
			copy(acc[:], d)
		}
		for p := 0; p < kc; p++ {
			av := ap[p*microMW+r]
			bq := bp[p*microNW : p*microNW+microNW]
			for c := range acc {
				acc[c] = fma32(av, bq[c], acc[c])
			}
		}
		copy(d, acc[:])
	}
}

// microSeq8x8Go is microTree8x8Go with the transposed-B accumulate
// convention: sums always start from zero and dst is added once at the
// end.
func microSeq8x8Go(dst []float32, ldd int, ap, bp []float32, kc int, accum bool) {
	for r := 0; r < microMW; r++ {
		d := dst[r*ldd : r*ldd+microNW]
		var acc [microNW]float32
		for p := 0; p < kc; p++ {
			av := ap[p*microMW+r]
			bq := bp[p*microNW : p*microNW+microNW]
			for c := range acc {
				acc[c] = fma32(av, bq[c], acc[c])
			}
		}
		if accum {
			for c := range acc {
				d[c] += acc[c]
			}
		} else {
			copy(d, acc[:])
		}
	}
}

// microHalf8x8Go is microTree8x8Go with the B strip stored as fp16 bit
// patterns, widened to float32 at consume time. Accumulation is full
// float32; only B's storage narrows.
func microHalf8x8Go(dst []float32, ldd int, ap []float32, bp []uint16, kc int, accum bool) {
	for r := 0; r < microMW; r++ {
		d := dst[r*ldd : r*ldd+microNW]
		var acc [microNW]float32
		if accum {
			copy(acc[:], d)
		}
		for p := 0; p < kc; p++ {
			av := ap[p*microMW+r]
			bq := bp[p*microNW : p*microNW+microNW]
			for c := range acc {
				acc[c] = fma32(av, HalfToFloat32(bq[c]), acc[c])
			}
		}
		copy(d, acc[:])
	}
}
