package tensor

import (
	"fmt"
	"math"

	"tbd/internal/prof"
)

// ActKind names a pointwise activation. GEMM and convolution can fuse one
// into their write-back epilogue, and the layers package builds its
// standalone activation layer on ActForward/ActBackward. Fused and
// standalone forms are bit-identical because there is one definition of
// each direction, actForwardRange and actBackwardRange below: the epilogue
// applies the first to each output row once its reduction is complete,
// ActForward applies it to a whole tensor. ReLU's bodies live in elem.go
// (portable) and elem_avx2_amd64.s, whose header has the one rule the
// vector form hangs on: VMAXPS returns its second source on a NaN and on a
// tie of zeros, so zero goes second and NaN and -0 still come out +0.
// Sigmoid and tanh are the scalar formulas in this file.
type ActKind uint8

const (
	ActNone ActKind = iota
	ActReLU
	ActSigmoid
	ActTanh
)

func (a ActKind) String() string {
	switch a {
	case ActNone:
		return "none"
	case ActReLU:
		return "relu"
	case ActSigmoid:
		return "sigmoid"
	case ActTanh:
		return "tanh"
	}
	return fmt.Sprintf("ActKind(%d)", uint8(a))
}

// Sigmoid32 is the logistic function computed in float64 and rounded
// once, the single definition shared by the fused epilogue and the
// standalone Sigmoid layer.
func Sigmoid32(v float32) float32 {
	return float32(1 / (1 + math.Exp(-float64(v))))
}

// Tanh32 is the float64-backed hyperbolic tangent, shared like Sigmoid32.
func Tanh32(v float32) float32 {
	return float32(math.Tanh(float64(v)))
}

// actForwardRange writes act(src[i]) to dst[i]; dst may be src. ActNone
// copies.
func actForwardRange(act ActKind, dst, src []float32, k *elemKernels) {
	switch act {
	case ActReLU:
		k.relu(dst, src)
	case ActSigmoid:
		for i, v := range src {
			dst[i] = Sigmoid32(v)
		}
	case ActTanh:
		for i, v := range src {
			dst[i] = Tanh32(v)
		}
	default:
		copy(dst, src)
	}
}

// actBackwardRange writes gy[i] * act'(y[i]) to dst[i], the derivative
// taken from the activation's output: ReLU as a multiply by a 1/0 mask (a
// select would turn a NaN or infinite gradient into 0 where y is zero),
// sigmoid as gy*y*(1-y), tanh as gy*(1-y*y). ActNone copies gy.
func actBackwardRange(act ActKind, dst, gy, y []float32, k *elemKernels) {
	switch act {
	case ActReLU:
		k.reluBwd(dst, gy, y)
	case ActSigmoid:
		for i, yy := range y {
			dst[i] = gy[i] * yy * (1 - yy)
		}
	case ActTanh:
		for i, yy := range y {
			dst[i] = gy[i] * (1 - yy*yy)
		}
	default:
		copy(dst, gy)
	}
}

// beginActSpan opens the profiler span of one pointwise pass over numel
// elements that reads or writes streams tensors of that size.
func beginActSpan(name string, numel, streams int) prof.Span {
	sp := prof.Begin(prof.CatKernel, name)
	if sp.Active() {
		sp.SetBytes(4 * int64(streams) * int64(numel))
	}
	return sp
}

// ActForward returns act(x) elementwise, the standalone twin of the fused
// epilogue and the forward half of ActBackward. Large tensors are chunked
// across the worker pool; chunks are elementwise-disjoint, so the result
// does not depend on the split. The result is pool-backed.
func ActForward(act ActKind, x *Tensor) *Tensor {
	sp := beginActSpan("act.fwd", len(x.data), 2)
	out := acquireDirty(x.shape...)
	parallelRows(len(x.data), 1, minElemsPerWorker, actForwardChunk, rowArgs{act: act, dst: out.data, a: x.data, ek: elemKernelsFor(currentGemmTier())})
	sp.End()
	return out
}

func actForwardChunk(r rowArgs, lo, hi int) { actForwardRange(r.act, r.dst[lo:hi], r.a[lo:hi], r.ek) }

// ActBackward computes the input gradient of an activation from the
// upstream gradient gy and the activation output y: gz = gy ⊙ act'(y).
// All three activations admit a derivative in terms of the output alone,
// which is what the fused layers and the activation layer stash. Split
// across the worker pool like ActForward. The result is pool-backed.
func ActBackward(act ActKind, gy, y *Tensor) *Tensor {
	if len(gy.data) != len(y.data) {
		panic(fmt.Sprintf("tensor: ActBackward size mismatch %v vs %v", gy.shape, y.shape))
	}
	sp := beginActSpan("act.bwd", len(gy.data), 3)
	out := acquireDirty(gy.shape...)
	parallelRows(len(gy.data), 1, minElemsPerWorker, actBackwardChunk, rowArgs{act: act, dst: out.data, a: gy.data, b: y.data, ek: elemKernelsFor(currentGemmTier())})
	sp.End()
	return out
}

func actBackwardChunk(r rowArgs, lo, hi int) {
	actBackwardRange(r.act, r.dst[lo:hi], r.a[lo:hi], r.b[lo:hi], r.ek)
}
