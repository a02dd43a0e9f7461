// Package optim implements the gradient-descent optimizers used to train
// the TBD benchmark models, plus learning-rate schedules. Optimizers that
// keep per-parameter state (momentum, Adam moments) report it via
// StateBytes — the memory the paper's profiler classifies as "dynamic"
// allocations (MXNet allocates momentum buffers during training iterations,
// §3.4.3).
package optim

import (
	"math"

	"tbd/internal/layers"
	"tbd/internal/prof"
)

// beginStepSpan opens a profiler span for one optimizer update, attaching
// the parameter traffic (weights and gradients read, weights written, plus
// any per-parameter state streamed through). stateWords is the number of
// float32 state values touched per parameter element (0 for SGD, 1 for
// momentum/RMSProp, 2 for Adam).
func beginStepSpan(name string, params []*layers.Param, stateWords int64) prof.Span {
	sp := prof.Begin(prof.CatOptim, name)
	if sp.Active() {
		n := layers.ParamCount(params)
		sp.SetBytes(4 * n * (3 + 2*stateWords))
		sp.SetFLOPs(float64(n) * float64(2+4*stateWords))
	}
	return sp
}

// Optimizer updates parameters in place from their accumulated gradients.
type Optimizer interface {
	// Step applies one update and clears nothing; callers zero gradients.
	Step(params []*layers.Param)
	// StateBytes reports optimizer state memory (the "dynamic" category).
	StateBytes() int64
}

// SGD is plain stochastic gradient descent with optional weight decay.
type SGD struct {
	LR          float32
	WeightDecay float32
}

// NewSGD constructs a plain SGD optimizer.
func NewSGD(lr float32) *SGD { return &SGD{LR: lr} }

// Step applies w -= lr * (g + wd*w).
func (o *SGD) Step(params []*layers.Param) {
	sp := beginStepSpan("optim.sgd", params, 0)
	for _, p := range params {
		sgdStep(p.Value.Data(), p.Grad.Data(), o.LR, o.WeightDecay)
	}
	sp.End()
}

// StateBytes is zero: SGD is stateless.
func (o *SGD) StateBytes() int64 { return 0 }

// Momentum is SGD with (optionally Nesterov) momentum.
type Momentum struct {
	LR          float32
	Mu          float32
	Nesterov    bool
	WeightDecay float32
	velocity    map[*layers.Param][]float32
}

// NewMomentum constructs a momentum optimizer.
func NewMomentum(lr, mu float32) *Momentum {
	return &Momentum{LR: lr, Mu: mu, velocity: make(map[*layers.Param][]float32)}
}

// Step applies v = mu*v - lr*g; w += v (or the Nesterov variant).
func (o *Momentum) Step(params []*layers.Param) {
	sp := beginStepSpan("optim.momentum", params, 1)
	for _, p := range params {
		v, ok := o.velocity[p]
		if !ok {
			v = make([]float32, p.Value.Numel())
			o.velocity[p] = v
		}
		// Branch on the variant once per parameter, not once per element.
		if o.Nesterov {
			nesterovStep(p.Value.Data(), p.Grad.Data(), v, o.LR, o.Mu, o.WeightDecay)
		} else {
			momentumStep(p.Value.Data(), p.Grad.Data(), v, o.LR, o.Mu, o.WeightDecay)
		}
	}
	sp.End()
}

// StateBytes reports the velocity buffers.
func (o *Momentum) StateBytes() int64 {
	var n int64
	//tbd:nondeterministic-ok order-independent sum over state-map values; never touches numerics
	for _, v := range o.velocity {
		n += int64(len(v)) * 4
	}
	return n
}

// Adam is the Adam optimizer (Kingma & Ba).
type Adam struct {
	LR, Beta1, Beta2, Eps float32
	t                     int
	m, v                  map[*layers.Param][]float32
}

// NewAdam constructs Adam with the standard defaults.
func NewAdam(lr float32) *Adam {
	return &Adam{
		LR: lr, Beta1: 0.9, Beta2: 0.999, Eps: 1e-8,
		m: make(map[*layers.Param][]float32),
		v: make(map[*layers.Param][]float32),
	}
}

// Step applies one bias-corrected Adam update.
func (o *Adam) Step(params []*layers.Param) {
	sp := beginStepSpan("optim.adam", params, 2)
	o.t++
	c1 := 1 - float32(math.Pow(float64(o.Beta1), float64(o.t)))
	c2 := 1 - float32(math.Pow(float64(o.Beta2), float64(o.t)))
	for _, p := range params {
		m, ok := o.m[p]
		if !ok {
			m = make([]float32, p.Value.Numel())
			o.m[p] = m
			o.v[p] = make([]float32, p.Value.Numel())
		}
		v := o.v[p]
		adamStep(p.Value.Data(), p.Grad.Data(), m, v, o.LR, o.Beta1, o.Beta2, o.Eps, c1, c2)
	}
	sp.End()
}

// StateBytes reports the first- and second-moment buffers.
func (o *Adam) StateBytes() int64 {
	var n int64
	//tbd:nondeterministic-ok order-independent sum over state-map values; never touches numerics
	for _, m := range o.m {
		n += int64(len(m)) * 8 // m and v
	}
	return n
}

// RMSProp is the RMSProp optimizer, the classic choice for A3C.
type RMSProp struct {
	LR, Decay, Eps float32
	sq             map[*layers.Param][]float32
}

// NewRMSProp constructs RMSProp with the A3C defaults.
func NewRMSProp(lr float32) *RMSProp {
	return &RMSProp{LR: lr, Decay: 0.99, Eps: 1e-6, sq: make(map[*layers.Param][]float32)}
}

// Step applies s = d*s + (1-d)*g²; w -= lr*g/sqrt(s+eps).
func (o *RMSProp) Step(params []*layers.Param) {
	sp := beginStepSpan("optim.rmsprop", params, 1)
	for _, p := range params {
		s, ok := o.sq[p]
		if !ok {
			s = make([]float32, p.Value.Numel())
			o.sq[p] = s
		}
		rmspropStep(p.Value.Data(), p.Grad.Data(), s, o.LR, o.Decay, o.Eps)
	}
	sp.End()
}

// StateBytes reports the squared-gradient buffers.
func (o *RMSProp) StateBytes() int64 {
	var n int64
	//tbd:nondeterministic-ok order-independent sum over state-map values; never touches numerics
	for _, s := range o.sq {
		n += int64(len(s)) * 4
	}
	return n
}

// ZeroGrads clears every parameter gradient.
func ZeroGrads(params []*layers.Param) {
	for _, p := range params {
		p.ZeroGrad()
	}
}

// ClipGradNorm scales gradients so their global L2 norm is at most maxNorm,
// the standard stabilizer for RNN training. It returns the pre-clip norm.
func ClipGradNorm(params []*layers.Param, maxNorm float32) float32 {
	var sq float64
	for _, p := range params {
		for _, g := range p.Grad.Data() {
			sq += float64(g) * float64(g)
		}
	}
	norm := float32(math.Sqrt(sq))
	if norm > maxNorm && norm > 0 {
		scale := maxNorm / norm
		for _, p := range params {
			g := p.Grad.Data()
			for i := range g {
				g[i] *= scale
			}
		}
	}
	return norm
}
