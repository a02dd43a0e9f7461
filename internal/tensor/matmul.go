package tensor

import (
	"fmt"

	"tbd/internal/prof"
)

// beginGemmSpan opens a profiler span for one GEMM entry point with its
// FLOP count and operand/result traffic attached. Span names are package
// constants so the disabled path never builds a string.
func beginGemmSpan(name string, n, k, m int) prof.Span {
	sp := prof.Begin(prof.CatKernel, name)
	if sp.Active() {
		sp.SetFLOPs(2 * float64(n) * float64(k) * float64(m))
		sp.SetBytes(4 * (int64(n)*int64(k) + int64(k)*int64(m) + int64(n)*int64(m)))
	}
	return sp
}

// minGemmWork is the approximate number of multiply-adds one worker should
// own before row-splitting a GEMM is worth the dispatch overhead.
const minGemmWork = 1 << 15

// gemmMinRows converts a per-row cost (k*m multiply-adds) into the minimum
// rows-per-worker threshold used by parallelRows.
func gemmMinRows(k, m int) int {
	return 1 + minGemmWork/(k*m+1)
}

func checkMatMul(a, b *Tensor, name string, transA, transB bool) (n, k, m int) {
	if a.Rank() != 2 || b.Rank() != 2 {
		panic(fmt.Sprintf("tensor: %s needs rank-2 operands, got %v, %v", name, a.shape, b.shape))
	}
	if transA {
		k, n = a.shape[0], a.shape[1]
	} else {
		n, k = a.shape[0], a.shape[1]
	}
	var k2 int
	if transB {
		m, k2 = b.shape[0], b.shape[1]
	} else {
		k2, m = b.shape[0], b.shape[1]
	}
	if k != k2 {
		panic(fmt.Sprintf("tensor: %s inner dimension mismatch %v, %v", name, a.shape, b.shape))
	}
	return n, k, m
}

func checkDst(dst *Tensor, n, m int, name string) {
	if dst.Rank() != 2 || dst.shape[0] != n || dst.shape[1] != m {
		panic(fmt.Sprintf("tensor: %s destination %v, want [%d %d]", name, dst.shape, n, m))
	}
}

// MatMul returns a @ b for 2-D tensors a [N, K] and b [K, M], computed with
// the packed kernel and row-parallel dispatch. The output is written in
// overwrite mode, so the pooled buffer skips its zero-fill.
func MatMul(a, b *Tensor) *Tensor {
	n, k, m := checkMatMul(a, b, "MatMul", false, false)
	sp := beginGemmSpan("gemm", n, k, m)
	out := acquireDirty(n, m)
	gemmParallel(out.data, a.data, b.data, n, k, m, layPlain, false, nil)
	sp.End()
	return out
}

// MatMulBiasAct returns act(a @ b + bias) with the bias broadcast across
// rows and the activation fused into the GEMM write-back. bias may be nil
// (no bias) and act ActNone (no activation); the result is bit-identical
// to MatMul followed by AddRowBroadcastInPlace followed by the standalone
// activation.
func MatMulBiasAct(a, b, bias *Tensor, act ActKind) *Tensor {
	n, k, m := checkMatMul(a, b, "MatMulBiasAct", false, false)
	var epv epilogue
	var ep *epilogue
	if bias != nil {
		if bias.Rank() != 1 || bias.shape[0] != m {
			panic(fmt.Sprintf("tensor: MatMulBiasAct bias %v, want [%d]", bias.shape, m))
		}
		epv = epilogue{colBias: bias.data, act: act}
		ep = &epv
	} else if act != ActNone {
		epv = epilogue{act: act}
		ep = &epv
	}
	sp := beginGemmSpan("gemm.bias_act", n, k, m)
	out := acquireDirty(n, m)
	gemmParallel(out.data, a.data, b.data, n, k, m, layPlain, false, ep)
	sp.End()
	return out
}

// MatMulInto computes dst = a @ b into the caller's buffer and returns dst.
func MatMulInto(dst, a, b *Tensor) *Tensor {
	n, k, m := checkMatMul(a, b, "MatMulInto", false, false)
	checkDst(dst, n, m, "MatMulInto")
	sp := beginGemmSpan("gemm", n, k, m)
	gemmParallel(dst.data, a.data, b.data, n, k, m, layPlain, false, nil)
	sp.End()
	return dst
}

// MatMulTransA returns aᵀ @ b for a [K, N] and b [K, M], producing [N, M]
// without materializing the transpose. Used for weight gradients.
func MatMulTransA(a, b *Tensor) *Tensor {
	n, k, m := checkMatMul(a, b, "MatMulTransA", true, false)
	sp := beginGemmSpan("gemm.dW", n, k, m)
	out := acquireDirty(n, m)
	gemmParallel(out.data, a.data, b.data, n, k, m, layTransA, false, nil)
	sp.End()
	return out
}

// MatMulTransAInto computes dst = aᵀ @ b into the caller's buffer and
// returns dst.
func MatMulTransAInto(dst, a, b *Tensor) *Tensor {
	n, k, m := checkMatMul(a, b, "MatMulTransAInto", true, false)
	checkDst(dst, n, m, "MatMulTransAInto")
	sp := beginGemmSpan("gemm.dW", n, k, m)
	gemmParallel(dst.data, a.data, b.data, n, k, m, layTransA, false, nil)
	sp.End()
	return dst
}

// MatMulTransB returns a @ bᵀ for a [N, K] and b [M, K], producing [N, M]
// without materializing the transpose. Used for input gradients.
func MatMulTransB(a, b *Tensor) *Tensor {
	n, k, m := checkMatMul(a, b, "MatMulTransB", false, true)
	sp := beginGemmSpan("gemm.dX", n, k, m)
	out := acquireDirty(n, m)
	gemmParallel(out.data, a.data, b.data, n, k, m, layTransB, false, nil)
	sp.End()
	return out
}

// MatMulTransBInto computes dst = a @ bᵀ into the caller's buffer and
// returns dst.
func MatMulTransBInto(dst, a, b *Tensor) *Tensor {
	n, k, m := checkMatMul(a, b, "MatMulTransBInto", false, true)
	checkDst(dst, n, m, "MatMulTransBInto")
	sp := beginGemmSpan("gemm.dX", n, k, m)
	gemmParallel(dst.data, a.data, b.data, n, k, m, layTransB, false, nil)
	sp.End()
	return dst
}

// BatchMatMul multiplies matching batches: a [B, N, K] @ b [B, K, M] ->
// [B, N, M], batches split across the worker pool. Used by attention
// layers.
func BatchMatMul(a, b *Tensor) *Tensor {
	if a.Rank() != 3 || b.Rank() != 3 {
		panic(fmt.Sprintf("tensor: BatchMatMul needs rank-3 operands, got %v @ %v", a.shape, b.shape))
	}
	bb, n, k := a.shape[0], a.shape[1], a.shape[2]
	if b.shape[0] != bb || b.shape[1] != k {
		panic(fmt.Sprintf("tensor: BatchMatMul mismatch %v @ %v", a.shape, b.shape))
	}
	m := b.shape[2]
	sp := prof.Begin(prof.CatKernel, "gemm.batch")
	if sp.Active() {
		sp.SetFLOPs(2 * float64(bb) * float64(n) * float64(k) * float64(m))
		sp.SetBytes(4 * int64(bb) * (int64(n)*int64(k) + int64(k)*int64(m) + int64(n)*int64(m)))
	}
	out := acquireDirty(bb, n, m)
	minBatches := 1 + gemmMinRows(k, m)/max(n, 1)
	if rowWorkers(bb, minBatches) <= 1 {
		batchMatMulRange(out.data, a.data, b.data, n, k, m, 0, bb)
		sp.End()
		return out
	}
	parallelRows(bb, minBatches, func(lo, hi int) {
		batchMatMulRange(out.data, a.data, b.data, n, k, m, lo, hi)
	})
	sp.End()
	return out
}

func batchMatMulRange(dst, a, b []float32, n, k, m, lo, hi int) {
	for i := lo; i < hi; i++ {
		gemmSerial(dst[i*n*m:(i+1)*n*m], a[i*n*k:(i+1)*n*k], b[i*k*m:(i+1)*k*m], n, k, m, layPlain, false, nil)
	}
}
