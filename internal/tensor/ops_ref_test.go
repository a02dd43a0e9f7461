package tensor

import "fmt"

// Elementwise operations and the unfused convolution only tests call:
// references for the fused and in-place forms the program uses.

// Conv2D computes a 2-D convolution of x [N, C, H, W] with weights
// w [F, C, kh, kw], returning a pool-backed [N, F, outH, outW].
func Conv2D(x, w *Tensor, stride, pad int) *Tensor {
	return Conv2DFused(x, w, nil, ActNone, stride, pad)
}

func mulChunk(r rowArgs, lo, hi int) {
	ov, av, bv := r.dst[lo:hi], r.a[lo:hi], r.b[lo:hi]
	for i := range ov {
		ov[i] = av[i] * bv[i]
	}
}

// Mul returns a * b elementwise (Hadamard product).
func Mul(a, b *Tensor) *Tensor {
	checkSame(a, b, "Mul")
	out := acquireDirty(a.shape...)
	parallelRows(len(a.data), 1, minElemsPerWorker, mulChunk, rowArgs{dst: out.data, a: a.data, b: b.data})
	return out
}

// Scale returns alpha * a in a new tensor.
func Scale(a *Tensor, alpha float32) *Tensor {
	out := acquireDirty(a.shape...)
	parallelRows(len(a.data), 1, minElemsPerWorker, scaleChunk, rowArgs{dst: out.data, a: a.data, alpha: alpha})
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
