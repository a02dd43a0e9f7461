package tensor

import "testing"

// TestMicroKernel8x8AsmMatchesGo cross-checks the installed AVX2 assembly
// against the Go fallbacks on identical packed panels. The Go fallback
// emulates float32 FMA via float64 math.FMA, which can double-round where
// the hardware rounds once, so the comparison allows a few ULP instead of
// exact equality (see gemm_kernels_wide.go).
func TestMicroKernel8x8AsmMatchesGo(t *testing.T) {
	if !haveAVX2Kernels {
		t.Skip("AVX2 kernels not installed")
	}
	rng := NewRNG(53)
	for _, kc := range []int{1, 2, 3, 8, 127, 128, 515} {
		ap := make([]float32, microMW*kc)
		bp := make([]float32, microNW*kc)
		fillRand(rng, ap)
		fillRand(rng, bp)
		bph := make([]uint16, microNW*kc)
		for i, v := range bp {
			bph[i] = Float32ToHalf(v)
		}
		seed := make([]float32, microMW*microNW)
		fillRand(rng, seed)
		type pair struct {
			name string
			asm  func(dst []float32, ldd int, kc int, accum bool)
			gofn func(dst []float32, ldd int, kc int, accum bool)
		}
		pairs := []pair{
			{"tree", func(d []float32, l, kc int, ac bool) { microTree8x8Asm(d, l, ap, bp, kc, ac) },
				func(d []float32, l, kc int, ac bool) { microTree8x8Go(d, l, ap, bp, kc, ac) }},
			{"seq", func(d []float32, l, kc int, ac bool) { microSeq8x8Asm(d, l, ap, bp, kc, ac) },
				func(d []float32, l, kc int, ac bool) { microSeq8x8Go(d, l, ap, bp, kc, ac) }},
		}
		if haveF16CKernels {
			pairs = append(pairs, pair{"half",
				func(d []float32, l, kc int, ac bool) { microHalf8x8Asm(d, l, ap, bph, kc, ac) },
				func(d []float32, l, kc int, ac bool) { microHalf8x8Go(d, l, ap, bph, kc, ac) }})
		}
		for _, pr := range pairs {
			for _, accum := range []bool{false, true} {
				asm := append([]float32(nil), seed...)
				gofb := append([]float32(nil), seed...)
				pr.asm(asm, microNW, kc, accum)
				pr.gofn(gofb, microNW, kc, accum)
				for i := range asm {
					if d := ulpDiff32(asm[i], gofb[i]); d > 4 {
						t.Fatalf("%s kc=%d accum=%v: [%d] asm=%v go=%v (%d ULP)",
							pr.name, kc, accum, i, asm[i], gofb[i], d)
					}
				}
			}
		}
	}
}
