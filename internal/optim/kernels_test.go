package optim

import (
	"math"
	"testing"

	"tbd/internal/layers"
)

// Golden-trajectory tests: each optimizer's fused kernel is compared
// against a verbatim copy of the pre-kernel per-element loop, run for
// dozens of steps over a buffer whose length is deliberately coprime with
// the 4x unroll, with exact (bitwise) equality required at every step.

// refSGDStep is the original SGD.Step inner loop, kept verbatim.
func refSGDStep(w, g []float32, lr, wd float32) {
	for i := range w {
		w[i] -= lr * (g[i] + wd*w[i])
	}
}

// refMomentumStep is the original Momentum.Step inner loop, kept verbatim
// (including the per-element Nesterov branch).
func refMomentumStep(w, g, v []float32, lr, mu, wd float32, nesterov bool) {
	for i := range w {
		grad := g[i] + wd*w[i]
		v[i] = mu*v[i] - lr*grad
		if nesterov {
			w[i] += mu*v[i] - lr*grad
		} else {
			w[i] += v[i]
		}
	}
}

// refAdamStep is the original Adam.Step inner loop, kept verbatim.
func refAdamStep(w, g, m, v []float32, lr, b1, b2, eps, c1, c2 float32) {
	for i := range w {
		m[i] = b1*m[i] + (1-b1)*g[i]
		v[i] = b2*v[i] + (1-b2)*g[i]*g[i]
		mh := m[i] / c1
		vh := v[i] / c2
		w[i] -= lr * mh / (float32(math.Sqrt(float64(vh))) + eps)
	}
}

// refRMSPropStep is the original RMSProp.Step inner loop, kept verbatim.
func refRMSPropStep(w, g, s []float32, lr, decay, eps float32) {
	for i := range w {
		s[i] = decay*s[i] + (1-decay)*g[i]*g[i]
		w[i] -= lr * g[i] / float32(math.Sqrt(float64(s[i])+float64(eps)))
	}
}

// trajLen is coprime with 4 so every kernel's unroll tail is exercised.
const trajLen = 103

// trajInit fills w with a deterministic spread of magnitudes and signs,
// including exact zeros.
func trajInit() []float32 {
	w := make([]float32, trajLen)
	for i := range w {
		switch i % 7 {
		case 0:
			w[i] = 0
		case 1:
			w[i] = float32(i) * 0.37
		case 2:
			w[i] = -float32(i) * 0.11
		case 3:
			w[i] = 1e-6 * float32(i+1)
		case 4:
			w[i] = -3.5
		case 5:
			w[i] = 42.0 / float32(i+1)
		default:
			w[i] = float32(math.Sin(float64(i)))
		}
	}
	return w
}

// trajGrad writes a step-dependent pseudo-random gradient, the same
// sequence for both the kernel and reference runs.
func trajGrad(g []float32, step int) {
	state := uint32(step)*2654435761 + 12345
	for i := range g {
		state = state*1664525 + 1013904223
		// Map to roughly [-2, 2) with occasional exact zeros.
		g[i] = (float32(state>>8) / float32(1<<23)) - 1
		g[i] *= 2
		if state%61 == 0 {
			g[i] = 0
		}
	}
}

func float32sIdentical(t *testing.T, name string, step int, got, want []float32) {
	t.Helper()
	for i := range want {
		if got[i] != want[i] && !(math.IsNaN(float64(got[i])) && math.IsNaN(float64(want[i]))) {
			t.Fatalf("%s diverged at step %d elem %d: kernel %v (0x%08x) vs ref %v (0x%08x)",
				name, step, i, got[i], math.Float32bits(got[i]), want[i], math.Float32bits(want[i]))
		}
	}
}

func TestSGDKernelGoldenTrajectory(t *testing.T) {
	for _, wd := range []float32{0, 0.01} {
		wk, wr := trajInit(), trajInit()
		g := make([]float32, trajLen)
		for step := 0; step < 30; step++ {
			trajGrad(g, step)
			sgdStep(wk, g, 0.05, wd)
			refSGDStep(wr, g, 0.05, wd)
			float32sIdentical(t, "sgd", step, wk, wr)
		}
	}
}

func TestMomentumKernelGoldenTrajectory(t *testing.T) {
	for _, nesterov := range []bool{false, true} {
		wk, wr := trajInit(), trajInit()
		vk := make([]float32, trajLen)
		vr := make([]float32, trajLen)
		g := make([]float32, trajLen)
		for step := 0; step < 30; step++ {
			trajGrad(g, step)
			if nesterov {
				nesterovStep(wk, g, vk, 0.05, 0.9, 0.001)
			} else {
				momentumStep(wk, g, vk, 0.05, 0.9, 0.001)
			}
			refMomentumStep(wr, g, vr, 0.05, 0.9, 0.001, nesterov)
			float32sIdentical(t, "momentum-w", step, wk, wr)
			float32sIdentical(t, "momentum-v", step, vk, vr)
		}
	}
}

func TestAdamKernelGoldenTrajectory(t *testing.T) {
	const b1, b2, eps, lr = 0.9, 0.999, 1e-8, 0.01
	wk, wr := trajInit(), trajInit()
	mk := make([]float32, trajLen)
	mr := make([]float32, trajLen)
	vk := make([]float32, trajLen)
	vr := make([]float32, trajLen)
	g := make([]float32, trajLen)
	for step := 1; step <= 30; step++ {
		trajGrad(g, step)
		c1 := 1 - float32(math.Pow(b1, float64(step)))
		c2 := 1 - float32(math.Pow(b2, float64(step)))
		adamStep(wk, g, mk, vk, lr, b1, b2, eps, c1, c2)
		refAdamStep(wr, g, mr, vr, lr, b1, b2, eps, c1, c2)
		float32sIdentical(t, "adam-w", step, wk, wr)
		float32sIdentical(t, "adam-m", step, mk, mr)
		float32sIdentical(t, "adam-v", step, vk, vr)
	}
}

func TestRMSPropKernelGoldenTrajectory(t *testing.T) {
	wk, wr := trajInit(), trajInit()
	sk := make([]float32, trajLen)
	sr := make([]float32, trajLen)
	g := make([]float32, trajLen)
	for step := 0; step < 30; step++ {
		trajGrad(g, step)
		rmspropStep(wk, g, sk, 0.01, 0.99, 1e-6)
		refRMSPropStep(wr, g, sr, 0.01, 0.99, 1e-6)
		float32sIdentical(t, "rmsprop-w", step, wk, wr)
		float32sIdentical(t, "rmsprop-s", step, sk, sr)
	}
}

// TestOptimizerTrajectoriesMatchPreKernel drives the full Optimizer
// implementations (state maps, bias-correction bookkeeping and all) against
// step-by-step reference loops, confirming the rewiring in optim.go kept
// whole-trajectory bit-identity, not just kernel-level identity.
func TestOptimizerTrajectoriesMatchPreKernel(t *testing.T) {
	mkParam := func() *layers.Param { return quadParam(trajInit()) }

	t.Run("adam", func(t *testing.T) {
		p := mkParam()
		wr := trajInit()
		mr := make([]float32, trajLen)
		vr := make([]float32, trajLen)
		g := make([]float32, trajLen)
		opt := NewAdam(0.01)
		for step := 1; step <= 25; step++ {
			trajGrad(g, step)
			copy(p.Grad.Data(), g)
			opt.Step([]*layers.Param{p})
			p.ZeroGrad()
			c1 := 1 - float32(math.Pow(float64(opt.Beta1), float64(step)))
			c2 := 1 - float32(math.Pow(float64(opt.Beta2), float64(step)))
			refAdamStep(wr, g, mr, vr, opt.LR, opt.Beta1, opt.Beta2, opt.Eps, c1, c2)
			float32sIdentical(t, "adam-opt", step, p.Value.Data(), wr)
		}
	})

	t.Run("nesterov", func(t *testing.T) {
		p := mkParam()
		wr := trajInit()
		vr := make([]float32, trajLen)
		g := make([]float32, trajLen)
		opt := NewMomentum(0.05, 0.9)
		opt.Nesterov = true
		opt.WeightDecay = 0.001
		for step := 0; step < 25; step++ {
			trajGrad(g, step)
			copy(p.Grad.Data(), g)
			opt.Step([]*layers.Param{p})
			p.ZeroGrad()
			refMomentumStep(wr, g, vr, opt.LR, opt.Mu, opt.WeightDecay, true)
			float32sIdentical(t, "nesterov-opt", step, p.Value.Data(), wr)
		}
	})

	t.Run("rmsprop", func(t *testing.T) {
		p := mkParam()
		wr := trajInit()
		sr := make([]float32, trajLen)
		g := make([]float32, trajLen)
		opt := NewRMSProp(0.01)
		for step := 0; step < 25; step++ {
			trajGrad(g, step)
			copy(p.Grad.Data(), g)
			opt.Step([]*layers.Param{p})
			p.ZeroGrad()
			refRMSPropStep(wr, g, sr, opt.LR, opt.Decay, opt.Eps)
			float32sIdentical(t, "rmsprop-opt", step, p.Value.Data(), wr)
		}
	})
}

// TestStepAllocsSteadyState: after the first Step has lazily created any
// state buffers, subsequent Steps must not allocate at all.
func TestStepAllocsSteadyState(t *testing.T) {
	for _, tc := range []struct {
		name string
		opt  Optimizer
	}{
		{"sgd", NewSGD(0.01)},
		{"momentum", NewMomentum(0.01, 0.9)},
		{"nesterov", func() Optimizer { m := NewMomentum(0.01, 0.9); m.Nesterov = true; return m }()},
		{"adam", NewAdam(0.01)},
		{"rmsprop", NewRMSProp(0.01)},
	} {
		params := []*layers.Param{quadParam(trajInit()), quadParam(trajInit()[:17])}
		for _, p := range params {
			setQuadGrad(p)
		}
		tc.opt.Step(params) // warm up lazy state
		allocs := testing.AllocsPerRun(100, func() {
			tc.opt.Step(params)
		})
		if allocs != 0 {
			t.Errorf("%s: %v allocs per steady-state Step, want 0", tc.name, allocs)
		}
	}
}
