package optim

import (
	"math"
	"testing"

	"tbd/internal/layers"
	"tbd/internal/tensor"
)

// quadParam builds a parameter initialized at x0 whose gradient is set to
// the gradient of f(w) = 0.5*||w||² (i.e. g = w), the canonical convex
// test problem.
func quadParam(x0 []float32) *layers.Param {
	p := layers.NewParam("w", tensor.FromSlice(append([]float32(nil), x0...), len(x0)))
	return p
}

func setQuadGrad(p *layers.Param) {
	copy(p.Grad.Data(), p.Value.Data())
}

func converges(t *testing.T, opt Optimizer, steps int, tol float32) {
	t.Helper()
	p := quadParam([]float32{5, -3, 2})
	for i := 0; i < steps; i++ {
		setQuadGrad(p)
		opt.Step([]*layers.Param{p})
		p.ZeroGrad()
	}
	if n := p.Value.L2Norm(); n > tol {
		t.Fatalf("optimizer did not converge: ||w|| = %g after %d steps", n, steps)
	}
}

func TestSGDConverges(t *testing.T)      { converges(t, NewSGD(0.1), 200, 1e-3) }
func TestMomentumConverges(t *testing.T) { converges(t, NewMomentum(0.05, 0.9), 300, 1e-3) }
func TestAdamConverges(t *testing.T)     { converges(t, NewAdam(0.1), 400, 1e-2) }
func TestRMSPropConverges(t *testing.T)  { converges(t, NewRMSProp(0.05), 500, 1e-2) }

func TestNesterovConverges(t *testing.T) {
	m := NewMomentum(0.05, 0.9)
	m.Nesterov = true
	converges(t, m, 300, 1e-3)
}

func TestSGDExactStep(t *testing.T) {
	p := quadParam([]float32{1})
	setQuadGrad(p)
	NewSGD(0.5).Step([]*layers.Param{p})
	if got := p.Value.At(0); got != 0.5 {
		t.Fatalf("w = %g, want 0.5", got)
	}
}

func TestWeightDecayShrinksWeights(t *testing.T) {
	o := NewSGD(0.1)
	o.WeightDecay = 0.5
	p := quadParam([]float32{1})
	// Zero gradient: only decay acts.
	o.Step([]*layers.Param{p})
	if got := p.Value.At(0); math.Abs(float64(got-0.95)) > 1e-6 {
		t.Fatalf("w = %g, want 0.95", got)
	}
}

func TestStateBytesGrowWithUse(t *testing.T) {
	for _, tc := range []struct {
		name string
		opt  Optimizer
		per  int64 // state floats per weight
	}{
		{"sgd", NewSGD(0.1), 0},
		{"momentum", NewMomentum(0.1, 0.9), 1},
		{"adam", NewAdam(0.1), 2},
		{"rmsprop", NewRMSProp(0.1), 1},
	} {
		p := quadParam(make([]float32, 100))
		if tc.opt.StateBytes() != 0 {
			t.Fatalf("%s: state before first step", tc.name)
		}
		tc.opt.Step([]*layers.Param{p})
		want := tc.per * 100 * 4
		if got := tc.opt.StateBytes(); got != want {
			t.Fatalf("%s: StateBytes = %d, want %d", tc.name, got, want)
		}
	}
}

func TestClipGradNorm(t *testing.T) {
	p := quadParam([]float32{3, 4}) // norm 5
	setQuadGrad(p)
	pre := ClipGradNorm([]*layers.Param{p}, 1)
	if math.Abs(float64(pre-5)) > 1e-5 {
		t.Fatalf("pre-clip norm %g, want 5", pre)
	}
	var sq float64
	for _, g := range p.Grad.Data() {
		sq += float64(g) * float64(g)
	}
	if math.Abs(math.Sqrt(sq)-1) > 1e-5 {
		t.Fatalf("post-clip norm %g, want 1", math.Sqrt(sq))
	}
	// Below the threshold nothing changes.
	setQuadGrad(p)
	ClipGradNorm([]*layers.Param{p}, 100)
	if p.Grad.At(0) != 3 {
		t.Fatal("clip below threshold must be a no-op")
	}
}

func TestZeroGrads(t *testing.T) {
	p := quadParam([]float32{1, 2})
	setQuadGrad(p)
	ZeroGrads([]*layers.Param{p})
	for _, g := range p.Grad.Data() {
		if g != 0 {
			t.Fatal("ZeroGrads left residue")
		}
	}
}

// TestAdamBeatsSGDOnIllConditioned reproduces the textbook motivation for
// adaptive optimizers: on a badly scaled quadratic Adam makes progress on
// the flat coordinate far faster than SGD at a stable learning rate.
func TestAdamBeatsSGDOnIllConditioned(t *testing.T) {
	run := func(opt Optimizer) float32 {
		p := quadParam([]float32{1, 1})
		for i := 0; i < 100; i++ {
			// f = 0.5*(1000*x² + 0.001*y²)
			p.Grad.Data()[0] = 1000 * p.Value.Data()[0]
			p.Grad.Data()[1] = 0.001 * p.Value.Data()[1]
			opt.Step([]*layers.Param{p})
			p.ZeroGrad()
		}
		return float32(math.Abs(float64(p.Value.At(1))))
	}
	sgdY := run(NewSGD(0.001)) // lr limited by the stiff direction
	adamY := run(NewAdam(0.05))
	if adamY >= sgdY {
		t.Fatalf("adam |y| = %g not better than sgd |y| = %g", adamY, sgdY)
	}
}
