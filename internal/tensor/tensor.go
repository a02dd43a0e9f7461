// Package tensor implements dense float32 tensors and the numeric kernels
// (elementwise algebra, GEMM, convolution, pooling, softmax) that the TBD
// training engine is built on. Tensors are row-major and always contiguous;
// shape errors are programmer errors and panic with a descriptive message,
// matching the convention of numeric libraries where silent shape coercion
// hides bugs.
package tensor

import (
	"fmt"
	"strings"
)

// Tensor is a dense row-major float32 tensor. The zero value is an empty
// scalar-less tensor; use New or the constructors below.
type Tensor struct {
	shape []int
	data  []float32
	// pooled marks a tensor currently owned by the buffer pool's caller;
	// Release clears it, making double-release a no-op. Views (Reshape)
	// and plain New tensors never carry it.
	pooled bool
}

// New returns a zero-filled tensor of the given shape. A tensor with no
// dimensions holds a single scalar element.
func New(shape ...int) *Tensor {
	n := checkShape(shape)
	return &Tensor{shape: append([]int(nil), shape...), data: make([]float32, n)}
}

// FromSlice wraps data in a tensor of the given shape. The slice is used
// directly (not copied); it must have exactly as many elements as the shape
// implies.
func FromSlice(data []float32, shape ...int) *Tensor {
	n := checkShape(shape)
	if len(data) != n {
		panic(fmt.Sprintf("tensor: FromSlice got %d elements for shape %v (want %d)", len(data), shape, n))
	}
	return &Tensor{shape: append([]int(nil), shape...), data: data}
}

// Full returns a tensor of the given shape with every element set to v.
func Full(v float32, shape ...int) *Tensor {
	t := New(shape...)
	for i := range t.data {
		t.data[i] = v
	}
	return t
}

// Ones returns a tensor of the given shape filled with 1.
func Ones(shape ...int) *Tensor { return Full(1, shape...) }

func checkShape(shape []int) int {
	n := 1
	for _, d := range shape {
		if d <= 0 {
			panic(fmt.Sprintf("tensor: non-positive dimension in shape %v", shape))
		}
		if int64(n) > (1<<31)/int64(d) {
			panic(fmt.Sprintf("tensor: shape %v overflows element count", shape))
		}
		n *= d
	}
	return n
}

// Shape returns the tensor's dimensions. The returned slice must not be
// mutated.
func (t *Tensor) Shape() []int { return t.shape }

// Data returns the backing slice in row-major order. Mutations are visible
// to the tensor.
func (t *Tensor) Data() []float32 { return t.data }

// Numel returns the total number of elements.
func (t *Tensor) Numel() int { return len(t.data) }

// Dim returns the size of dimension i.
func (t *Tensor) Dim(i int) int { return t.shape[i] }

// Rank returns the number of dimensions.
func (t *Tensor) Rank() int { return len(t.shape) }

// At returns the element at the given multi-index.
func (t *Tensor) At(idx ...int) float32 { return t.data[t.offset(idx)] }

// Set stores v at the given multi-index.
func (t *Tensor) Set(v float32, idx ...int) { t.data[t.offset(idx)] = v }

func (t *Tensor) offset(idx []int) int {
	if len(idx) != len(t.shape) {
		panic(fmt.Sprintf("tensor: index rank %d does not match shape %v", len(idx), t.shape))
	}
	off := 0
	for i, x := range idx {
		if x < 0 || x >= t.shape[i] {
			panic(fmt.Sprintf("tensor: index %v out of range for shape %v", idx, t.shape))
		}
		off = off*t.shape[i] + x
	}
	return off
}

// Clone returns a deep copy.
func (t *Tensor) Clone() *Tensor {
	c := &Tensor{shape: append([]int(nil), t.shape...), data: make([]float32, len(t.data))}
	copy(c.data, t.data)
	return c
}

// Reshape returns a view of the same data with a new shape. The element
// count must match. One dimension may be -1, in which case it is inferred.
func (t *Tensor) Reshape(shape ...int) *Tensor {
	out := append([]int(nil), shape...)
	infer := -1
	known := 1
	for i, d := range out {
		if d == -1 {
			if infer >= 0 {
				panic("tensor: Reshape with more than one inferred dimension")
			}
			infer = i
			continue
		}
		if d <= 0 {
			panic(fmt.Sprintf("tensor: invalid Reshape dimension %d", d))
		}
		known *= d
	}
	if infer >= 0 {
		if known == 0 || len(t.data)%known != 0 {
			panic(fmt.Sprintf("tensor: cannot infer Reshape %v from %d elements", shape, len(t.data)))
		}
		out[infer] = len(t.data) / known
		known *= out[infer]
	}
	if known != len(t.data) {
		panic(fmt.Sprintf("tensor: Reshape %v incompatible with %d elements", shape, len(t.data)))
	}
	// A no-op reshape returns the tensor itself so pool ownership (and the
	// ability to Release) survives shape-normalization call sites.
	if len(out) == len(t.shape) {
		same := true
		for i := range out {
			if out[i] != t.shape[i] {
				same = false
				break
			}
		}
		if same {
			return t
		}
	}
	return &Tensor{shape: out, data: t.data}
}

// SameShape reports whether t and o have identical shapes.
func (t *Tensor) SameShape(o *Tensor) bool {
	if len(t.shape) != len(o.shape) {
		return false
	}
	for i := range t.shape {
		if t.shape[i] != o.shape[i] {
			return false
		}
	}
	return true
}

// Zero sets every element to 0.
func (t *Tensor) Zero() {
	for i := range t.data {
		t.data[i] = 0
	}
}

// Fill sets every element to v.
//
//tbd:api writes the sentinel the gradient-write tests (graph, layers) detect overwrites by
func (t *Tensor) Fill(v float32) {
	for i := range t.data {
		t.data[i] = v
	}
}

// ShareStorage repoints t's backing array at src's, so every subsequent
// read of t observes src's data without a copy. Shapes must match
// exactly. This is the weight-sharing primitive behind replicated
// serving: N per-replica networks alias one parameter snapshot, so the
// fleet's resident weight bytes stay those of a single model. Pooled
// tensors are refused on both sides — pool ownership assumes one backing
// array per tensor, and aliasing would let a Release recycle storage the
// other tensor still reads.
func (t *Tensor) ShareStorage(src *Tensor) {
	if !t.SameShape(src) {
		panic(fmt.Sprintf("tensor: ShareStorage shape mismatch %v vs %v", t.shape, src.shape))
	}
	if t.pooled || src.pooled {
		panic("tensor: ShareStorage on a pooled tensor")
	}
	t.data = src.data
}

// CopyFrom copies o's elements into t. Shapes must match.
func (t *Tensor) CopyFrom(o *Tensor) {
	if !t.SameShape(o) {
		panic(fmt.Sprintf("tensor: CopyFrom shape mismatch %v vs %v", t.shape, o.shape))
	}
	copy(t.data, o.data)
}

// String renders a compact description, eliding large tensors.
func (t *Tensor) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Tensor%v", t.shape)
	if len(t.data) <= 8 {
		fmt.Fprintf(&b, "%v", t.data)
	} else {
		fmt.Fprintf(&b, "[%g %g %g ... %g]", t.data[0], t.data[1], t.data[2], t.data[len(t.data)-1])
	}
	return b.String()
}
