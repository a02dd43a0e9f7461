package tensor

import "fmt"

// Elementwise operations and the unfused convolution only tests call:
// references for the fused and in-place forms the program uses.

// Conv2D computes a 2-D convolution of x [N, C, H, W] with weights
// w [F, C, kh, kw], returning a pool-backed [N, F, outH, outW].
func Conv2D(x, w *Tensor, stride, pad int) *Tensor {
	return Conv2DFused(x, w, nil, ActNone, stride, pad)
}

func mulRange(ov, av, bv []float32) {
	for i := range ov {
		ov[i] = av[i] * bv[i]
	}
}

// Mul returns a * b elementwise (Hadamard product).
func Mul(a, b *Tensor) *Tensor {
	checkSame(a, b, "Mul")
	out := acquireDirty(a.shape...)
	if rowWorkers(len(a.data), minElemsPerWorker) <= 1 {
		mulRange(out.data, a.data, b.data)
		return out
	}
	parallelRows(len(a.data), minElemsPerWorker, func(lo, hi int) {
		mulRange(out.data[lo:hi], a.data[lo:hi], b.data[lo:hi])
	})
	return out
}

// Scale returns alpha * a in a new tensor.
func Scale(a *Tensor, alpha float32) *Tensor {
	out := acquireDirty(a.shape...)
	if rowWorkers(len(a.data), minElemsPerWorker) <= 1 {
		scaleRange(alpha, out.data, a.data)
		return out
	}
	parallelRows(len(a.data), minElemsPerWorker, func(lo, hi int) {
		scaleRange(alpha, out.data[lo:hi], a.data[lo:hi])
	})
	return out
}

func applyRange(ov, av []float32, f func(float32) float32) {
	for i := range ov {
		ov[i] = f(av[i])
	}
}

// Apply returns f mapped over a into a new tensor.
func Apply(a *Tensor, f func(float32) float32) *Tensor {
	out := acquireDirty(a.shape...)
	if rowWorkers(len(a.data), minElemsPerWorker) <= 1 {
		applyRange(out.data, a.data, f)
		return out
	}
	parallelRows(len(a.data), minElemsPerWorker, func(lo, hi int) {
		applyRange(out.data[lo:hi], a.data[lo:hi], f)
	})
	return out
}

// AddRowBroadcast returns m + row where m is [N, F] and row is [F] (or
// [1, F]); row is added to every row of m. Used for bias addition.
func AddRowBroadcast(m, row *Tensor) *Tensor {
	f := row.Numel()
	if m.Rank() < 1 || m.Numel()%f != 0 {
		panic(fmt.Sprintf("tensor: AddRowBroadcast %v + %v", m.shape, row.shape))
	}
	out := acquireDirty(m.shape...)
	copy(out.data, m.data)
	addRowBroadcastInPlace(out, row, f)
	return out
}
