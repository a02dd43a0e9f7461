package tensor

import "math"

// Pointwise kernels: the engine's one ReLU forward, its one ReLU backward,
// the two bias adds that precede an activation in a fused GEMM or conv
// epilogue, and batch normalization's three training bodies (channel
// sums, normalize, input gradient; batchnorm.go). Every activation site
// reaches the first four — applyEpilogueRows (gemm.go), ActForward and
// ActBackward (activation.go), and through those the layers package — so
// the definitions below are the only place ReLU is written.
//
// Two sets of bodies exist and they agree bit for bit, including on -0,
// ±Inf, denormals and NaN payloads (elem_test.go holds both against the
// branchy scalar loops they replaced, batchnorm_test.go the batch-norm
// bodies against each other and against the layer's old loops):
//
//	elemGo   portable Go. ReLU selects on the integer bit pattern, which
//	         the compiler lowers to a conditional move: a float compare and
//	         branch mispredicts on about half of all pre-activations and
//	         cost 6 ns an element, some twenty times the bias add beside it.
//	elemVec  AVX2, installed under the same CPUID + XGETBV check as the
//	         8x8 GEMM kernels: 8-wide ReLU and bias adds
//	         (elem_avx2_amd64.{s,go}), Go finishing the < 8-element tail;
//	         batch-norm sums with one channel per float64 lane, four
//	         channels a group, and 8-wide normalize and gradient passes
//	         (bn_avx2_amd64.{s,go}), Go summing the C mod 4 channels left.
//
// elemKernelsFor picks the set from the GEMM tier a caller has already
// read: vector bodies iff the tier is avx2, so TBD_GEMM_KERNEL=ref remains
// a pure-Go process and the forced-tier test runs cover both sets. There is
// no separate switch.
//
// Left out on purpose:
//   - an SSE body: no sse-only host is gated, the reason ROADMAP item 2
//     also parks the 4x4 driver's k-loop;
//   - fusing the epilogue into the micro-kernel write-back: the tile is
//     still in L1 when applyEpilogueRows reaches it, so nothing is left to
//     win;
//   - vector sigmoid/tanh: they are bound by exp, and a polynomial would
//     break their contract of float64 math rounded once (Sigmoid32, Tanh32);
//   - packing frozen serving weights once per swap: a separate change with
//     its own prediction (ROADMAP item 2).

// elemKernels is one set of pointwise bodies over equal-length slices.
type elemKernels struct {
	addVec   func(dst, src []float32)       // dst[i] += src[i]
	addConst func(dst []float32, c float32) // dst[i] += c
	relu     func(dst, src []float32)       // dst[i] = src[i] if src[i] > 0, else +0; dst may be src
	reluBwd  func(dst, gy, y []float32)     // dst[i] = gy[i] * (1 if y[i] > 0, else 0)

	// Batch normalization's training bodies (batchnorm.go), one channel
	// group or one channel at a time.
	bnSums func(sa, sab []float64, a, b []float32, pl chanPlanes)           // sa[j] = Σa, sab[j] = Σa·b over channel j
	bnNorm func(xh, out, x []float32, pl chanPlanes, mu, inv, g, b float32) // xh = (x−mu)·inv, out = g·xh + b
	bnGrad func(gx, gy, xh []float32, pl chanPlanes, k, m, s, sx float32)   // gx = k·((m·gy − s) − xh·sx)
}

var (
	elemGo = elemKernels{addVec: accumRange, addConst: addConstGo, relu: reluGo, reluBwd: reluBwdGo,
		bnSums: bnSumsGo, bnNorm: bnNormGo, bnGrad: bnGradGo}
	// elemVec is overwritten during package init where the AVX2 bodies can
	// run (gemm_kernels_avx2_amd64.go, beside the 8x8 kernels); elsewhere
	// the avx2 tier cannot be selected.
	elemVec = elemGo
)

func elemKernelsFor(t gemmTier) *elemKernels {
	if t == tierAVX2 {
		return &elemVec
	}
	return &elemGo
}

// isPositiveBits reports v > 0 for the float32 with bit pattern b. One
// unsigned compare covers every class: +0 wraps to 0xffffffff, +Inf
// (0x7f800000) is the last pattern kept, and positive NaNs and everything
// with the sign bit set (-0 included) lie above it.
func isPositiveBits(b uint32) bool { return b-1 < 0x7f800000 }

func addConstGo(dst []float32, c float32) {
	for i := range dst {
		dst[i] += c
	}
}

// reluGo is `if !(v > 0) { v = 0 }` without the float compare: NaN and -0
// go to +0, as they always have.
func reluGo(dst, src []float32) {
	src = src[:len(dst)]
	for i, v := range src {
		b := math.Float32bits(v)
		var r uint32
		if isPositiveBits(b) {
			r = b
		}
		dst[i] = math.Float32frombits(r)
	}
}

// reluBwdGo multiplies by a 1/0 mask where a select would be cheaper: a
// NaN or infinite upstream gradient must reach the result as NaN even
// where y is zero, as it did through the layers' mask tensors.
func reluBwdGo(dst, gy, y []float32) {
	gy, y = gy[:len(dst)], y[:len(dst)]
	for i, yy := range y {
		var mask uint32
		if isPositiveBits(math.Float32bits(yy)) {
			mask = 0x3f800000 // 1.0
		}
		dst[i] = gy[i] * math.Float32frombits(mask)
	}
}
