package tensor

import (
	"fmt"
	"math"
)

// minElemsPerWorker is the smallest elementwise chunk worth dispatching to
// the worker pool; below it the channel round-trip dominates.
const minElemsPerWorker = 1 << 14

// checkSame panics unless a and b share a shape.
func checkSame(a, b *Tensor, op string) {
	if !a.SameShape(b) {
		panic(fmt.Sprintf("tensor: %s shape mismatch %v vs %v", op, a.shape, b.shape))
	}
}

// The binary ops are specialized loops rather than a shared closure-taking
// helper: the indirect call per element costs more than the arithmetic,
// and these run on every activation and gradient in training. Outputs are
// pool-backed; large tensors are chunked across the worker pool (chunking
// is elementwise-disjoint, so results are bit-identical to serial).

func addChunk(r rowArgs, lo, hi int) {
	ov, av, bv := r.dst[lo:hi], r.a[lo:hi], r.b[lo:hi]
	for i := range ov {
		ov[i] = av[i] + bv[i]
	}
}

// Add returns a + b elementwise.
func Add(a, b *Tensor) *Tensor {
	checkSame(a, b, "Add")
	out := acquireDirty(a.shape...)
	parallelRows(len(a.data), 1, minElemsPerWorker, addChunk, rowArgs{dst: out.data, a: a.data, b: b.data})
	return out
}

func accumRange(av, bv []float32) {
	bv = bv[:len(av)]
	for i := range av {
		av[i] += bv[i]
	}
}

// AddInPlace accumulates b into a.
func AddInPlace(a, b *Tensor) {
	checkSame(a, b, "AddInPlace")
	parallelRows(len(a.data), 1, minElemsPerWorker, accumChunk, rowArgs{dst: a.data, a: b.data})
}

func accumChunk(r rowArgs, lo, hi int) { accumRange(r.dst[lo:hi], r.a[lo:hi]) }

// scaleChunk writes alpha·a to dst over [lo, hi); dst may be a.
func scaleChunk(r rowArgs, lo, hi int) {
	ov, av := r.dst[lo:hi], r.a[lo:hi]
	for i := range ov {
		ov[i] = r.alpha * av[i]
	}
}

// ScaleInPlace multiplies every element by alpha.
func (t *Tensor) ScaleInPlace(alpha float32) {
	parallelRows(len(t.data), 1, minElemsPerWorker, scaleChunk, rowArgs{dst: t.data, a: t.data, alpha: alpha})
}

// AddRowBroadcastInPlace adds row [F] to every row of m [N, F] in place,
// the allocation-free bias addition used by the layers package.
//
//tbd:api the unfused bias add TestMatMulBiasActMatchesUnfused checks the fused epilogue against
func AddRowBroadcastInPlace(m, row *Tensor) {
	f := row.Numel()
	if m.Rank() < 1 || m.Numel()%f != 0 {
		panic(fmt.Sprintf("tensor: AddRowBroadcastInPlace %v + %v", m.shape, row.shape))
	}
	addRowBroadcastInPlace(m, row, f)
}

func addRowBroadcastRange(r rowArgs, lo, hi int) {
	m, row, f := r.dst, r.a, r.m
	for i := lo; i < hi; i++ {
		mrow := m[i*f : (i+1)*f]
		for j, v := range row {
			mrow[j] += v
		}
	}
}

func addRowBroadcastInPlace(m, row *Tensor, f int) {
	parallelRows(m.Numel()/f, 1, 1+minElemsPerWorker/(f+1), addRowBroadcastRange, rowArgs{dst: m.data, a: row.data, m: f})
}

// Sum returns the sum of all elements.
func (t *Tensor) Sum() float32 {
	// Pairwise-ish accumulation in float64 for stability.
	var s float64
	for _, v := range t.data {
		s += float64(v)
	}
	return float32(s)
}

// Mean returns the arithmetic mean of all elements.
func (t *Tensor) Mean() float32 { return t.Sum() / float32(len(t.data)) }

// argmax returns the index of row's first maximum; 0 when no element
// exceeds -Inf (an all-NaN or all -Inf row).
func argmax(row []float32) int {
	best, bi := float32(math.Inf(-1)), 0
	for j, v := range row {
		if v > best {
			best, bi = v, j
		}
	}
	return bi
}

// SumRows treats t as [N, F] and returns the column-wise sum, a tensor of
// shape [F]. Used for bias gradients.
func SumRows(t *Tensor) *Tensor {
	if t.Rank() < 2 {
		panic("tensor: SumRows needs rank >= 2")
	}
	n := t.shape[0]
	f := t.Numel() / n
	out := Acquire(f)
	for i := 0; i < n; i++ {
		row := t.data[i*f : (i+1)*f]
		for j, v := range row {
			out.data[j] += v
		}
	}
	return out
}

// L2Norm returns the Euclidean norm of all elements.
//
//tbd:api the norm the optimizer convergence tests and tensor properties measure
func (t *Tensor) L2Norm() float32 {
	var s float64
	for _, v := range t.data {
		s += float64(v) * float64(v)
	}
	return float32(math.Sqrt(s))
}

// Equal reports whether a and b have the same shape and elements within
// tolerance eps.
//
//tbd:api the tolerance comparison the parity and bit-identity tests of every numeric package use
func Equal(a, b *Tensor, eps float32) bool {
	if !a.SameShape(b) {
		return false
	}
	for i := range a.data {
		d := a.data[i] - b.data[i]
		if d < -eps || d > eps {
			return false
		}
	}
	return true
}
