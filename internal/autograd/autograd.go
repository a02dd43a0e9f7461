// Package autograd is a tape-based reverse-mode automatic differentiation
// engine over the tensor package — the imperative ("define-by-run")
// execution style of PyTorch and Chainer that the paper's §2.3 contrasts
// with the declarative dataflow of TensorFlow/MXNet/CNTK. Operations
// record themselves on a tape as they execute; Backward replays the tape
// in reverse, accumulating gradients into every variable that requires
// them.
//
// The engine is deliberately independent of the layers package: the two
// implement backpropagation twice by different designs, and the test
// suite cross-validates their gradients against each other — the
// strongest correctness check the repository has for either.
package autograd

import (
	"fmt"

	"tbd/internal/tensor"
)

// Tape records operations in execution order so gradients can be replayed
// in reverse. A Tape is not safe for concurrent use; create one per
// training goroutine.
type Tape struct {
	nodes []*Var
}

// NewTape creates an empty tape.
func NewTape() *Tape { return &Tape{} }

// Reset clears the recorded operations (keeps no references to old
// variables), letting one tape serve many iterations.
func (t *Tape) Reset() { t.nodes = t.nodes[:0] }

// Var is one node of the computation: a value, an optional gradient
// accumulator, and the closure that propagates its gradient to its
// parents.
type Var struct {
	Value *tensor.Tensor
	// Grad accumulates d(loss)/d(Value) after Backward; nil until used.
	Grad *tensor.Tensor

	tape     *Tape
	requires bool
	back     func(g *tensor.Tensor)
}

// Param registers a trainable leaf variable on the tape.
func (t *Tape) Param(v *tensor.Tensor) *Var {
	return &Var{Value: v, tape: t, requires: true}
}

// Const registers a non-trainable input.
func (t *Tape) Const(v *tensor.Tensor) *Var {
	return &Var{Value: v, tape: t, requires: false}
}

// RequiresGrad reports whether gradients flow into this variable.
func (v *Var) RequiresGrad() bool { return v.requires }

// node records an operation's output on the tape.
func (t *Tape) node(value *tensor.Tensor, requires bool, back func(g *tensor.Tensor)) *Var {
	out := &Var{Value: value, tape: t, requires: requires, back: back}
	if requires {
		t.nodes = append(t.nodes, out)
	}
	return out
}

// accumulate adds g into v.Grad (allocating on first use).
func (v *Var) accumulate(g *tensor.Tensor) {
	if !v.requires {
		return
	}
	if v.Grad == nil {
		v.Grad = tensor.New(v.Value.Shape()...)
	}
	tensor.AddInPlace(v.Grad, g)
}

// accumulateTemp is accumulate for a gradient computed only to be added:
// the temporary goes back to the pool.
func (v *Var) accumulateTemp(g *tensor.Tensor) {
	v.accumulate(g)
	g.Release()
}

// ZeroGrad clears the variable's gradient.
func (v *Var) ZeroGrad() {
	if v.Grad != nil {
		v.Grad.Zero()
	}
}

// Backward seeds d(loss)/d(v) = 1 (v must be scalar-like: one element)
// and replays the tape in reverse, filling Grad on every requires-grad
// variable reachable from v.
func (v *Var) Backward() {
	if v.Value.Numel() != 1 {
		panic(fmt.Sprintf("autograd: Backward needs a scalar, got shape %v", v.Value.Shape()))
	}
	v.BackwardWith(tensor.Ones(v.Value.Shape()...))
}

// BackwardWith seeds an explicit output gradient.
func (v *Var) BackwardWith(seed *tensor.Tensor) {
	if !v.Value.SameShape(seed) {
		panic(fmt.Sprintf("autograd: seed shape %v != value shape %v", seed.Shape(), v.Value.Shape()))
	}
	v.accumulate(seed)
	t := v.tape
	// Reverse tape order is a valid topological order for replay: every
	// node was appended after its parents.
	for i := len(t.nodes) - 1; i >= 0; i-- {
		n := t.nodes[i]
		if n.Grad == nil || n.back == nil {
			continue
		}
		n.back(n.Grad)
	}
}

// binaryRequires is true if either operand needs gradients.
func binaryRequires(a, b *Var) bool { return a.requires || b.requires }

// Add returns a + b.
func Add(a, b *Var) *Var {
	out := tensor.Add(a.Value, b.Value)
	return a.tape.node(out, binaryRequires(a, b), func(g *tensor.Tensor) {
		a.accumulate(g)
		b.accumulate(g)
	})
}

// Sub returns a - b.
func Sub(a, b *Var) *Var {
	out := tensor.Sub(a.Value, b.Value)
	return a.tape.node(out, binaryRequires(a, b), func(g *tensor.Tensor) {
		a.accumulate(g)
		b.accumulateTemp(tensor.Scale(g, -1))
	})
}

// Mul returns the elementwise product a * b.
func Mul(a, b *Var) *Var {
	out := tensor.Mul(a.Value, b.Value)
	return a.tape.node(out, binaryRequires(a, b), func(g *tensor.Tensor) {
		a.accumulateTemp(tensor.Mul(g, b.Value))
		b.accumulateTemp(tensor.Mul(g, a.Value))
	})
}

// Scale returns alpha * a.
func Scale(a *Var, alpha float32) *Var {
	return a.tape.node(tensor.Scale(a.Value, alpha), a.requires, func(g *tensor.Tensor) {
		a.accumulateTemp(tensor.Scale(g, alpha))
	})
}

// MatMul returns a @ b for 2-D operands.
func MatMul(a, b *Var) *Var {
	out := tensor.MatMul(a.Value, b.Value)
	return a.tape.node(out, binaryRequires(a, b), func(g *tensor.Tensor) {
		if a.requires {
			a.accumulateTemp(tensor.MatMulTransB(g, b.Value))
		}
		if b.requires {
			b.accumulateTemp(tensor.MatMulTransA(a.Value, g))
		}
	})
}

// AddBias returns m + row broadcast over rows (bias addition).
func AddBias(m, bias *Var) *Var {
	out := tensor.AddRowBroadcast(m.Value, bias.Value)
	return m.tape.node(out, binaryRequires(m, bias), func(g *tensor.Tensor) {
		m.accumulate(g)
		if bias.requires {
			bias.accumulateTemp(tensor.SumRows(g))
		}
	})
}

// ReLU returns max(0, a).
func ReLU(a *Var) *Var {
	out := tensor.Apply(a.Value, func(v float32) float32 {
		if v > 0 {
			return v
		}
		return 0
	})
	return a.tape.node(out, a.requires, func(g *tensor.Tensor) {
		gx := tensor.New(g.Shape()...)
		for i, v := range a.Value.Data() {
			if v > 0 {
				gx.Data()[i] = g.Data()[i]
			}
		}
		a.accumulate(gx)
	})
}

// Tanh returns tanh(a).
func Tanh(a *Var) *Var {
	out := tensor.Apply(a.Value, tanh32)
	return a.tape.node(out, a.requires, func(g *tensor.Tensor) {
		gx := tensor.New(g.Shape()...)
		for i, y := range out.Data() {
			gx.Data()[i] = g.Data()[i] * (1 - y*y)
		}
		a.accumulate(gx)
	})
}

// Sigmoid returns 1/(1+exp(-a)).
func Sigmoid(a *Var) *Var {
	out := tensor.Apply(a.Value, sigmoid32)
	return a.tape.node(out, a.requires, func(g *tensor.Tensor) {
		gx := tensor.New(g.Shape()...)
		for i, y := range out.Data() {
			gx.Data()[i] = g.Data()[i] * y * (1 - y)
		}
		a.accumulate(gx)
	})
}

// Reshape returns a view with a new shape (gradients reshape back).
func Reshape(a *Var, shape ...int) *Var {
	origShape := append([]int(nil), a.Value.Shape()...)
	out := a.Value.Clone().Reshape(shape...)
	return a.tape.node(out, a.requires, func(g *tensor.Tensor) {
		a.accumulate(g.Clone().Reshape(origShape...))
	})
}

// Mean returns the scalar mean of all elements (shape [1]).
func Mean(a *Var) *Var {
	out := tensor.FromSlice([]float32{a.Value.Mean()}, 1)
	inv := 1 / float32(a.Value.Numel())
	return a.tape.node(out, a.requires, func(g *tensor.Tensor) {
		gx := tensor.Full(g.Data()[0]*inv, a.Value.Shape()...)
		a.accumulate(gx)
	})
}

// Sum returns the scalar sum of all elements (shape [1]).
func Sum(a *Var) *Var {
	out := tensor.FromSlice([]float32{a.Value.Sum()}, 1)
	return a.tape.node(out, a.requires, func(g *tensor.Tensor) {
		a.accumulate(tensor.Full(g.Data()[0], a.Value.Shape()...))
	})
}

// CrossEntropy returns the scalar mean cross-entropy of logits [N, F]
// against integer labels.
func CrossEntropy(logits *Var, labels []int) *Var {
	loss, grad := tensor.CrossEntropy(logits.Value, labels)
	out := tensor.FromSlice([]float32{loss}, 1)
	return logits.tape.node(out, logits.requires, func(g *tensor.Tensor) {
		logits.accumulateTemp(tensor.Scale(grad, g.Data()[0]))
	})
}

// Conv2D returns the convolution of x [N,C,H,W] with w [F,C,k,k].
func Conv2D(x, w *Var, stride, pad int) *Var {
	out := tensor.Conv2D(x.Value, w.Value, stride, pad)
	return x.tape.node(out, binaryRequires(x, w), func(g *tensor.Tensor) {
		gx, gw := tensor.Conv2DBackward(x.Value, w.Value, g, stride, pad)
		if x.requires {
			x.accumulate(gx)
		}
		if w.requires {
			w.accumulate(gw)
		}
	})
}

func tanh32(v float32) float32 {
	// Route through the same math as the layers package for equality
	// tests.
	e2 := exp32(2 * v)
	return (e2 - 1) / (e2 + 1)
}

func sigmoid32(v float32) float32 {
	return 1 / (1 + exp32(-v))
}

func exp32(v float32) float32 {
	return float32(expFloat(float64(v)))
}
