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
// is elementwise-disjoint, so results are bit-identical to serial). Each
// op branches on rowWorkers before building its dispatch closure so the
// serial path — the common case for activation-sized tensors — allocates
// nothing.

func addRange(ov, av, bv []float32) {
	for i := range ov {
		ov[i] = av[i] + bv[i]
	}
}

func subRange(ov, av, bv []float32) {
	for i := range ov {
		ov[i] = av[i] - bv[i]
	}
}

func mulRange(ov, av, bv []float32) {
	for i := range ov {
		ov[i] = av[i] * bv[i]
	}
}

func divRange(ov, av, bv []float32) {
	for i := range ov {
		ov[i] = av[i] / bv[i]
	}
}

// Add returns a + b elementwise.
func Add(a, b *Tensor) *Tensor {
	checkSame(a, b, "Add")
	out := acquireDirty(a.shape...)
	if rowWorkers(len(a.data), minElemsPerWorker) <= 1 {
		addRange(out.data, a.data, b.data)
		return out
	}
	parallelRows(len(a.data), minElemsPerWorker, func(lo, hi int) {
		addRange(out.data[lo:hi], a.data[lo:hi], b.data[lo:hi])
	})
	return out
}

// AddInto computes dst = a + b elementwise into the caller's buffer and
// returns dst. dst may alias a or b.
func AddInto(dst, a, b *Tensor) *Tensor {
	checkSame(a, b, "AddInto")
	checkSame(dst, a, "AddInto")
	if rowWorkers(len(a.data), minElemsPerWorker) <= 1 {
		addRange(dst.data, a.data, b.data)
		return dst
	}
	parallelRows(len(a.data), minElemsPerWorker, func(lo, hi int) {
		addRange(dst.data[lo:hi], a.data[lo:hi], b.data[lo:hi])
	})
	return dst
}

// Sub returns a - b elementwise.
func Sub(a, b *Tensor) *Tensor {
	checkSame(a, b, "Sub")
	out := acquireDirty(a.shape...)
	if rowWorkers(len(a.data), minElemsPerWorker) <= 1 {
		subRange(out.data, a.data, b.data)
		return out
	}
	parallelRows(len(a.data), minElemsPerWorker, func(lo, hi int) {
		subRange(out.data[lo:hi], a.data[lo:hi], b.data[lo:hi])
	})
	return out
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

// Div returns a / b elementwise.
func Div(a, b *Tensor) *Tensor {
	checkSame(a, b, "Div")
	out := acquireDirty(a.shape...)
	if rowWorkers(len(a.data), minElemsPerWorker) <= 1 {
		divRange(out.data, a.data, b.data)
		return out
	}
	parallelRows(len(a.data), minElemsPerWorker, func(lo, hi int) {
		divRange(out.data[lo:hi], a.data[lo:hi], b.data[lo:hi])
	})
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
	if rowWorkers(len(a.data), minElemsPerWorker) <= 1 {
		accumRange(a.data, b.data)
		return
	}
	parallelRows(len(a.data), minElemsPerWorker, func(lo, hi int) {
		accumRange(a.data[lo:hi], b.data[lo:hi])
	})
}

func axpyRange(alpha float32, av, bv []float32) {
	for i := range av {
		av[i] += alpha * bv[i]
	}
}

// AXPY computes a += alpha*b in place.
func AXPY(alpha float32, b, a *Tensor) {
	checkSame(a, b, "AXPY")
	if rowWorkers(len(a.data), minElemsPerWorker) <= 1 {
		axpyRange(alpha, a.data, b.data)
		return
	}
	parallelRows(len(a.data), minElemsPerWorker, func(lo, hi int) {
		axpyRange(alpha, a.data[lo:hi], b.data[lo:hi])
	})
}

func scaleRange(alpha float32, ov, av []float32) {
	for i := range ov {
		ov[i] = alpha * av[i]
	}
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

// ScaleInPlace multiplies every element by alpha.
func (t *Tensor) ScaleInPlace(alpha float32) {
	if rowWorkers(len(t.data), minElemsPerWorker) <= 1 {
		scaleRange(alpha, t.data, t.data)
		return
	}
	parallelRows(len(t.data), minElemsPerWorker, func(lo, hi int) {
		scaleRange(alpha, t.data[lo:hi], t.data[lo:hi])
	})
}

// AddScalar returns a + c elementwise.
func AddScalar(a *Tensor, c float32) *Tensor {
	out := acquireDirty(a.shape...)
	for i := range a.data {
		out.data[i] = a.data[i] + c
	}
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

// AddRowBroadcastInPlace adds row [F] to every row of m [N, F] in place,
// the allocation-free bias addition used by the layers package.
func AddRowBroadcastInPlace(m, row *Tensor) {
	f := row.Numel()
	if m.Rank() < 1 || m.Numel()%f != 0 {
		panic(fmt.Sprintf("tensor: AddRowBroadcastInPlace %v + %v", m.shape, row.shape))
	}
	addRowBroadcastInPlace(m, row, f)
}

func addRowBroadcastRange(m, row []float32, f, lo, hi int) {
	for i := lo; i < hi; i++ {
		mrow := m[i*f : (i+1)*f]
		for j, v := range row {
			mrow[j] += v
		}
	}
}

func addRowBroadcastInPlace(m, row *Tensor, f int) {
	n := m.Numel() / f
	minRows := 1 + minElemsPerWorker/(f+1)
	if rowWorkers(n, minRows) <= 1 {
		addRowBroadcastRange(m.data, row.data, f, 0, n)
		return
	}
	parallelRows(n, minRows, func(lo, hi int) {
		addRowBroadcastRange(m.data, row.data, f, lo, hi)
	})
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

// Max returns the maximum element.
func (t *Tensor) Max() float32 {
	m := float32(math.Inf(-1))
	for _, v := range t.data {
		if v > m {
			m = v
		}
	}
	return m
}

// Min returns the minimum element.
func (t *Tensor) Min() float32 {
	m := float32(math.Inf(1))
	for _, v := range t.data {
		if v < m {
			m = v
		}
	}
	return m
}

// Argmax returns the flat index of the maximum element.
func (t *Tensor) Argmax() int {
	best, bi := float32(math.Inf(-1)), 0
	for i, v := range t.data {
		if v > best {
			best, bi = v, i
		}
	}
	return bi
}

// ArgmaxRows treats t as [N, F] (flattening trailing dims) and returns the
// argmax of each row. Used for classification accuracy.
func ArgmaxRows(t *Tensor) []int {
	if t.Rank() < 2 {
		panic("tensor: ArgmaxRows needs rank >= 2")
	}
	n := t.shape[0]
	f := t.Numel() / n
	out := make([]int, n)
	for i := 0; i < n; i++ {
		row := t.data[i*f : (i+1)*f]
		best, bi := float32(math.Inf(-1)), 0
		for j, v := range row {
			if v > best {
				best, bi = v, j
			}
		}
		out[i] = bi
	}
	return out
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
func (t *Tensor) L2Norm() float32 {
	var s float64
	for _, v := range t.data {
		s += float64(v) * float64(v)
	}
	return float32(math.Sqrt(s))
}

// Transpose returns the transpose of a 2-D tensor.
func Transpose(a *Tensor) *Tensor {
	if a.Rank() != 2 {
		panic(fmt.Sprintf("tensor: Transpose needs rank 2, got %v", a.shape))
	}
	n, m := a.shape[0], a.shape[1]
	out := New(m, n)
	for i := 0; i < n; i++ {
		for j := 0; j < m; j++ {
			out.data[j*n+i] = a.data[i*m+j]
		}
	}
	return out
}

// Concat concatenates tensors along axis 0. All trailing dimensions must
// match.
func Concat(ts ...*Tensor) *Tensor {
	if len(ts) == 0 {
		panic("tensor: Concat of nothing")
	}
	inner := ts[0].Numel() / ts[0].shape[0]
	rows := 0
	for _, t := range ts {
		if t.Numel()/t.shape[0] != inner {
			panic("tensor: Concat inner-size mismatch")
		}
		rows += t.shape[0]
	}
	shape := append([]int{rows}, ts[0].shape[1:]...)
	out := New(shape...)
	off := 0
	for _, t := range ts {
		copy(out.data[off:], t.data)
		off += t.Numel()
	}
	return out
}

// Equal reports whether a and b have the same shape and elements within
// tolerance eps.
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
