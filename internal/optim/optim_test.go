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

func TestAdamSnapshotRestoreExactResume(t *testing.T) {
	// 40 straight Adam steps == 20 steps + snapshot + restore into a
	// fresh optimizer + 20 more steps.
	run := func(opt *Adam, p *layers.Param, steps int) {
		for i := 0; i < steps; i++ {
			setQuadGrad(p)
			opt.Step([]*layers.Param{p})
			p.ZeroGrad()
		}
	}
	straight := quadParam([]float32{5, -3, 2})
	optA := NewAdam(0.05)
	run(optA, straight, 40)

	phased := quadParam([]float32{5, -3, 2})
	optB := NewAdam(0.05)
	run(optB, phased, 20)
	st := optB.Snapshot([]*layers.Param{phased})
	optC := NewAdam(0.05)
	if err := optC.Restore([]*layers.Param{phased}, st); err != nil {
		t.Fatal(err)
	}
	run(optC, phased, 20)

	for i := range straight.Value.Data() {
		d := straight.Value.Data()[i] - phased.Value.Data()[i]
		if d > 1e-7 || d < -1e-7 {
			t.Fatalf("adam resume diverged at %d: %g vs %g", i, straight.Value.Data()[i], phased.Value.Data()[i])
		}
	}
}

func TestMomentumAndRMSPropSnapshotRestore(t *testing.T) {
	for _, tc := range []struct {
		name string
		mk   func() Stateful
	}{
		{"momentum", func() Stateful { return NewMomentum(0.05, 0.9) }},
		{"rmsprop", func() Stateful { return NewRMSProp(0.05) }},
	} {
		straight := quadParam([]float32{4, -2})
		a := tc.mk()
		for i := 0; i < 30; i++ {
			setQuadGrad(straight)
			a.Step([]*layers.Param{straight})
			straight.ZeroGrad()
		}
		phased := quadParam([]float32{4, -2})
		b := tc.mk()
		for i := 0; i < 15; i++ {
			setQuadGrad(phased)
			b.Step([]*layers.Param{phased})
			phased.ZeroGrad()
		}
		st := b.Snapshot([]*layers.Param{phased})
		c := tc.mk()
		if err := c.Restore([]*layers.Param{phased}, st); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		for i := 0; i < 15; i++ {
			setQuadGrad(phased)
			c.Step([]*layers.Param{phased})
			phased.ZeroGrad()
		}
		for i := range straight.Value.Data() {
			d := straight.Value.Data()[i] - phased.Value.Data()[i]
			if d > 1e-7 || d < -1e-7 {
				t.Fatalf("%s resume diverged", tc.name)
			}
		}
	}
}

func TestRestoreRejectsWrongKind(t *testing.T) {
	p := quadParam([]float32{1})
	m := NewMomentum(0.1, 0.9)
	setQuadGrad(p)
	m.Step([]*layers.Param{p})
	st := m.Snapshot([]*layers.Param{p})
	a := NewAdam(0.1)
	if err := a.Restore([]*layers.Param{p}, st); err == nil {
		t.Fatal("adam must reject momentum state")
	}
	// And mismatched sizes.
	st2 := m.Snapshot([]*layers.Param{p})
	st2.Slots["velocity"][0] = st2.Slots["velocity"][0][:0]
	m2 := NewMomentum(0.1, 0.9)
	p2 := quadParam([]float32{1})
	if err := m2.Restore([]*layers.Param{p2}, st2); err != nil {
		// Zero-length buffer for a 1-element param must error... unless
		// skipped; verify the error fires.
		_ = err
	} else {
		t.Fatal("size mismatch must be rejected")
	}
}

func TestSnapshotBeforeAnyStepIsEmptyButRestorable(t *testing.T) {
	p := quadParam([]float32{1, 2})
	a := NewAdam(0.1)
	st := a.Snapshot([]*layers.Param{p})
	b := NewAdam(0.1)
	if err := b.Restore([]*layers.Param{p}, st); err != nil {
		t.Fatal(err)
	}
	// Fresh restore behaves like a fresh optimizer.
	setQuadGrad(p)
	b.Step([]*layers.Param{p})
}
