//go:build amd64

package tensor

// AVX2 bindings for the pointwise kernels (elem_avx2_amd64.s), installed by
// the init in gemm_kernels_avx2_amd64.go beside the 8x8 GEMM kernels, on the
// same CPUID + XGETBV result. Each wrapper hands the assembly the largest
// multiple of 8 elements and the portable body the remainder, so the two
// sets differ in speed only.

//go:noescape
func addVecAVX2(dst, src *float32, n int)

//go:noescape
func addConstAVX2(dst *float32, c float32, n int)

//go:noescape
func reluAVX2(dst, src *float32, n int)

//go:noescape
func reluBwdAVX2(dst, gy, y *float32, n int)

func addVecAsm(dst, src []float32) {
	src = src[:len(dst)]
	n := len(dst) &^ 7
	if n > 0 {
		addVecAVX2(&dst[0], &src[0], n)
	}
	accumRange(dst[n:], src[n:])
}

func addConstAsm(dst []float32, c float32) {
	n := len(dst) &^ 7
	if n > 0 {
		addConstAVX2(&dst[0], c, n)
	}
	addConstGo(dst[n:], c)
}

func reluAsm(dst, src []float32) {
	src = src[:len(dst)]
	n := len(dst) &^ 7
	if n > 0 {
		reluAVX2(&dst[0], &src[0], n)
	}
	reluGo(dst[n:], src[n:])
}

func reluBwdAsm(dst, gy, y []float32) {
	gy, y = gy[:len(dst)], y[:len(dst)]
	n := len(dst) &^ 7
	if n > 0 {
		reluBwdAVX2(&dst[0], &gy[0], &y[0], n)
	}
	reluBwdGo(dst[n:], gy[n:], y[n:])
}
