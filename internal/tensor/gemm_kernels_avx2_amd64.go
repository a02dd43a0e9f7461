//go:build amd64

package tensor

// AVX2+FMA micro-kernel bindings (gemm_micro_avx2_amd64.s). Unlike the
// SSE bindings these are only installed when CPUID reports AVX2+FMA with
// OS-enabled YMM state, and the half-widening kernel additionally needs
// F16C; tier.go gates dispatch on the same flags, so the assembly never
// runs on hardware that cannot execute it.

//go:noescape
func microTree8x8AVX2(dst *float32, ldd int, ap, bp *float32, kc, accum int)

//go:noescape
func microSeq8x8AVX2(dst *float32, ldd int, ap, bp *float32, kc, accum int)

//go:noescape
func microHalf8x8AVX2(dst *float32, ldd int, ap *float32, bp *uint16, kc, accum int)

func microTree8x8Asm(dst []float32, ldd int, ap, bp []float32, kc int, accum bool) {
	acc := 0
	if accum {
		acc = 1
	}
	// The caller guarantees len(dst) >= 7*ldd+8, len(ap) >= 8*kc,
	// len(bp) >= 8*kc, kc >= 1.
	microTree8x8AVX2(&dst[0], ldd, &ap[0], &bp[0], kc, acc)
}

func microSeq8x8Asm(dst []float32, ldd int, ap, bp []float32, kc int, accum bool) {
	acc := 0
	if accum {
		acc = 1
	}
	microSeq8x8AVX2(&dst[0], ldd, &ap[0], &bp[0], kc, acc)
}

func microHalf8x8Asm(dst []float32, ldd int, ap []float32, bp []uint16, kc int, accum bool) {
	acc := 0
	if accum {
		acc = 1
	}
	microHalf8x8AVX2(&dst[0], ldd, &ap[0], &bp[0], kc, acc)
}

func init() {
	feat := detectCPU()
	if feat.avx2fma {
		kernelTree8x8 = microTree8x8Asm
		kernelSeq8x8 = microSeq8x8Asm
		elemVec = elemKernels{addVec: addVecAsm, addConst: addConstAsm, relu: reluAsm, reluBwd: reluBwdAsm}
		haveAVX2Kernels = true
	}
	if feat.f16c {
		kernelHalf8x8 = microHalf8x8Asm
		haveF16CKernels = true
	}
}
