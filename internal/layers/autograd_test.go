package layers_test

import (
	"math"
	"testing"

	"tbd/internal/layers"
	"tbd/internal/tensor"
)

func TestMatMulGradientsMatchFiniteDifference(t *testing.T) {
	rng := tensor.NewRNG(1)
	av := tensor.RandNormal(rng, 0, 1, 3, 4)
	bv := tensor.RandNormal(rng, 0, 1, 4, 2)
	loss := func() float32 {
		tape := NewTape()
		a := tape.Param(av)
		b := tape.Param(bv)
		return Sum(MatMul(a, b)).Value.Data()[0]
	}
	tape := NewTape()
	a := tape.Param(av)
	b := tape.Param(bv)
	Sum(MatMul(a, b)).Backward()

	const eps = 1e-2
	base := loss()
	_ = base
	for _, i := range []int{0, 5, 11} {
		orig := av.Data()[i]
		av.Data()[i] = orig + eps
		up := loss()
		av.Data()[i] = orig - eps
		down := loss()
		av.Data()[i] = orig
		num := float64(up-down) / (2 * eps)
		if math.Abs(num-float64(a.Grad.Data()[i])) > 1e-2*(1+math.Abs(num)) {
			t.Fatalf("a.grad[%d]: %g vs %g", i, num, a.Grad.Data()[i])
		}
	}
	for _, i := range []int{0, 3, 7} {
		orig := bv.Data()[i]
		bv.Data()[i] = orig + eps
		up := loss()
		bv.Data()[i] = orig - eps
		down := loss()
		bv.Data()[i] = orig
		num := float64(up-down) / (2 * eps)
		if math.Abs(num-float64(b.Grad.Data()[i])) > 1e-2*(1+math.Abs(num)) {
			t.Fatalf("b.grad[%d]: %g vs %g", i, num, b.Grad.Data()[i])
		}
	}
}

func TestAutogradMatchesLayersDense(t *testing.T) {
	// The same dense+ReLU+dense forward, computed imperatively on the
	// tape and declaratively through the layers package, must produce
	// identical outputs and parameter gradients.
	rng := tensor.NewRNG(2)
	dense1 := layers.NewDense("fc1", 4, 8, rng)
	dense2 := layers.NewDense("fc2", 8, 3, rng)
	x := tensor.RandNormal(rng, 0, 1, 5, 4)
	labels := []int{0, 2, 1, 0, 2}

	// Declarative path.
	seq := layers.NewSequential("mlp", dense1, layers.NewReLU("r"), dense2)
	for _, p := range seq.Params() {
		p.ZeroGrad()
	}
	logits := seq.Forward(x, true)
	lossL, gradL := tensor.CrossEntropy(logits, labels)
	seq.Backward(gradL)

	// Imperative path over the same weight tensors.
	tape := NewTape()
	w1 := tape.Param(dense1.W.Value)
	b1 := tape.Param(dense1.B.Value)
	w2 := tape.Param(dense2.W.Value)
	b2 := tape.Param(dense2.B.Value)
	in := tape.Const(x)
	h := ReLU(AddBias(MatMul(in, w1), b1))
	out := AddBias(MatMul(h, w2), b2)
	lossA := CrossEntropy(out, labels)
	lossA.Backward()

	if math.Abs(float64(lossA.Value.Data()[0]-lossL)) > 1e-5 {
		t.Fatalf("losses differ: autograd %g vs layers %g", lossA.Value.Data()[0], lossL)
	}
	if !tensor.Equal(out.Value, logits, 1e-5) {
		t.Fatal("forward outputs differ")
	}
	pairs := []struct {
		name string
		av   *tensor.Tensor
		lv   *tensor.Tensor
	}{
		{"W1", w1.Grad, dense1.W.Grad},
		{"b1", b1.Grad, dense1.B.Grad},
		{"W2", w2.Grad, dense2.W.Grad},
		{"b2", b2.Grad, dense2.B.Grad},
	}
	for _, p := range pairs {
		if p.av == nil {
			t.Fatalf("%s: autograd gradient missing", p.name)
		}
		if !tensor.Equal(p.av, p.lv, 1e-5) {
			t.Fatalf("%s: autograd and layers gradients differ", p.name)
		}
	}
}

func TestAutogradMatchesLayersConv(t *testing.T) {
	rng := tensor.NewRNG(3)
	conv := layers.NewConv2DNoBias("conv", 2, 3, 3, 1, 1, rng)
	x := tensor.RandNormal(rng, 0, 1, 2, 2, 5, 5)

	for _, p := range conv.Params() {
		p.ZeroGrad()
	}
	y := conv.Forward(x, true)
	gy := tensor.Ones(y.Shape()...)
	conv.Backward(gy)

	tape := NewTape()
	w := tape.Param(conv.W.Value)
	in := tape.Const(x)
	out := Conv2D(in, w, 1, 1)
	Sum(out).Backward()

	if !tensor.Equal(out.Value, y, 1e-5) {
		t.Fatal("conv forward differs")
	}
	if !tensor.Equal(w.Grad, conv.W.Grad, 1e-4) {
		t.Fatal("conv weight gradients differ between engines")
	}
}

func TestDiamondGraphAccumulates(t *testing.T) {
	// y = sum(x*x + x*x): the shared node x feeds two branches, so its
	// gradient must accumulate from both: dy/dx = 4x.
	xv := tensor.FromSlice([]float32{1, 2, 3}, 3)
	tape := NewTape()
	x := tape.Param(xv)
	a := Mul(x, x)
	b := Mul(x, x)
	Sum(Add(a, b)).Backward()
	for i, v := range xv.Data() {
		want := 4 * v
		if math.Abs(float64(x.Grad.Data()[i]-want)) > 1e-5 {
			t.Fatalf("diamond grad[%d] = %g, want %g", i, x.Grad.Data()[i], want)
		}
	}
}

func TestConstGetsNoGradient(t *testing.T) {
	tape := NewTape()
	c := tape.Const(tensor.FromSlice([]float32{2}, 1))
	p := tape.Param(tensor.FromSlice([]float32{3}, 1))
	Sum(Mul(c, p)).Backward()
	if c.Grad != nil {
		t.Fatal("constant accumulated a gradient")
	}
	if p.Grad == nil || p.Grad.Data()[0] != 2 {
		t.Fatalf("param grad = %v, want 2", p.Grad)
	}
}

func TestActivationsAndReshape(t *testing.T) {
	rng := tensor.NewRNG(4)
	xv := tensor.RandNormal(rng, 0, 1, 2, 6)
	for _, op := range []struct {
		name string
		f    func(*Var) *Var
	}{
		{"relu", ReLU}, {"tanh", Tanh}, {"sigmoid", Sigmoid},
		{"reshape", func(v *Var) *Var { return Reshape(v, 3, 4) }},
		{"scale", func(v *Var) *Var { return Scale(v, 2.5) }},
		{"mean", Mean},
	} {
		loss := func() float32 {
			tape := NewTape()
			x := tape.Param(xv)
			out := op.f(x)
			if out.Value.Numel() > 1 {
				out = Sum(out)
			}
			return out.Value.Data()[0]
		}
		tape := NewTape()
		x := tape.Param(xv)
		out := op.f(x)
		if out.Value.Numel() > 1 {
			out = Sum(out)
		}
		out.Backward()
		const eps = 1e-2
		for _, i := range []int{0, 7, 11} {
			orig := xv.Data()[i]
			xv.Data()[i] = orig + eps
			up := loss()
			xv.Data()[i] = orig - eps
			down := loss()
			xv.Data()[i] = orig
			num := float64(up-down) / (2 * eps)
			if math.Abs(num-float64(x.Grad.Data()[i])) > 2e-2*(1+math.Abs(num)) {
				t.Fatalf("%s grad[%d]: %g vs %g", op.name, i, num, x.Grad.Data()[i])
			}
		}
	}
}

func TestImperativeTrainingConverges(t *testing.T) {
	// Define-by-run training loop: rebuild the graph every iteration (the
	// Chainer/PyTorch style) and converge on a separable task.
	rng := tensor.NewRNG(5)
	w1v := tensor.XavierInit(rng, 2, 16, 2, 16)
	b1v := tensor.New(16)
	w2v := tensor.XavierInit(rng, 16, 2, 16, 2)
	b2v := tensor.New(2)
	batch := func(n int) (*tensor.Tensor, []int) {
		x := tensor.New(n, 2)
		labels := make([]int, n)
		for i := 0; i < n; i++ {
			c := rng.Intn(2)
			labels[i] = c
			cx := float32(2*c - 1)
			x.Set(cx+0.3*float32(rng.Norm()), i, 0)
			x.Set(cx+0.3*float32(rng.Norm()), i, 1)
		}
		return x, labels
	}
	var first, last float32
	for step := 0; step < 150; step++ {
		xv, labels := batch(16)
		tape := NewTape()
		w1, b1 := tape.Param(w1v), tape.Param(b1v)
		w2, b2 := tape.Param(w2v), tape.Param(b2v)
		x := tape.Const(xv)
		loss := CrossEntropy(AddBias(MatMul(ReLU(AddBias(MatMul(x, w1), b1)), w2), b2), labels)
		loss.Backward()
		for _, p := range []*Var{w1, b1, w2, b2} {
			for i, g := range p.Grad.Data() {
				p.Value.Data()[i] -= 0.1 * g
			}
		}
		if step == 0 {
			first = loss.Value.Data()[0]
		}
		last = loss.Value.Data()[0]
	}
	if last >= first/4 {
		t.Fatalf("imperative training did not converge: %.4f -> %.4f", first, last)
	}
}

func TestBackwardValidatesScalar(t *testing.T) {
	tape := NewTape()
	x := tape.Param(tensor.New(2, 2))
	defer func() {
		if recover() == nil {
			t.Fatal("non-scalar Backward must panic")
		}
	}()
	x.Backward()
}

func TestTapeReset(t *testing.T) {
	tape := NewTape()
	x := tape.Param(tensor.FromSlice([]float32{1}, 1))
	Sum(Mul(x, x)).Backward()
	if len(tape.nodes) == 0 {
		t.Fatal("tape recorded nothing")
	}
	tape.Reset()
	if len(tape.nodes) != 0 {
		t.Fatal("reset did not clear the tape")
	}
}
