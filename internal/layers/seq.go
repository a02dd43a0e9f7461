package layers

import (
	"tbd/internal/prof"
	"tbd/internal/tensor"
)

// Sequential chains layers, feeding each one's output to the next.
type Sequential struct {
	name   string
	Layers []Layer
}

// NewSequential constructs a sequential container.
func NewSequential(name string, ls ...Layer) *Sequential {
	return &Sequential{name: name, Layers: ls}
}

// Add appends layers.
func (s *Sequential) Add(ls ...Layer) { s.Layers = append(s.Layers, ls...) }

func (s *Sequential) Name() string { return s.name }

func (s *Sequential) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	// Span names are the layers' stored names, so the disabled path never
	// builds a string; kernel spans opened inside each layer nest under its
	// layer span in the trace.
	for _, l := range s.Layers {
		sp := prof.Begin(prof.CatForward, l.Name())
		x = l.Forward(x, train)
		sp.End()
	}
	return x
}

func (s *Sequential) Backward(gy *tensor.Tensor) *tensor.Tensor { return s.backward(gy, true) }

// BackwardParams is Backward for a caller that drops the result: the first
// child, whose input gradient would be that result, is asked for none.
func (s *Sequential) BackwardParams(gy *tensor.Tensor) { s.backward(gy, false) }

func (s *Sequential) backward(gy *tensor.Tensor, needGX bool) *tensor.Tensor {
	// Intermediate gradients are recycled by the layers that produced
	// them, each on its own next Backward call.
	g := gy
	for i := len(s.Layers) - 1; i >= 0; i-- {
		sp := prof.Begin(prof.CatBackward, s.Layers[i].Name())
		if i == 0 && !needGX {
			BackwardParams(s.Layers[i], g)
		} else {
			g = s.Layers[i].Backward(g)
		}
		sp.End()
	}
	return g
}

func (s *Sequential) Params() []*Param {
	var ps []*Param
	for _, l := range s.Layers {
		ps = append(ps, l.Params()...)
	}
	return ps
}

func (s *Sequential) StashBytes() int64 {
	var n int64
	for _, l := range s.Layers {
		n += l.StashBytes()
	}
	return n
}

// FreezeHalfWeights freezes every child layer that supports fp16
// storage; others stay at full precision.
func (s *Sequential) FreezeHalfWeights() {
	for _, l := range s.Layers {
		if f, ok := l.(HalfFreezer); ok {
			f.FreezeHalfWeights()
		}
	}
}

// ResidentWeightBytes sums the children's storage-aware weight bytes.
func (s *Sequential) ResidentWeightBytes() int64 {
	var n int64
	for _, l := range s.Layers {
		n += residentWeightBytes(l)
	}
	return n
}

// Residual wraps a body with an identity skip connection:
// y = body(x) + proj(x), where proj defaults to identity and may be a 1x1
// convolution or dense projection when shapes differ — the ResNet pattern.
type Residual struct {
	name string
	Body Layer
	Proj Layer // optional; nil means identity skip
	out  *tensor.Tensor
}

// NewResidual constructs a residual block.
func NewResidual(name string, body Layer, proj Layer) *Residual {
	return &Residual{name: name, Body: body, Proj: proj}
}

func (r *Residual) Name() string { return r.name }

func (r *Residual) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	sp := prof.Begin(prof.CatForward, r.name)
	r.out.Release()
	y := r.Body.Forward(x, train)
	skip := x
	if r.Proj != nil {
		skip = r.Proj.Forward(x, train)
	}
	out := tensor.Add(y, skip)
	r.out = out
	sp.End()
	return out
}

func (r *Residual) Backward(gy *tensor.Tensor) *tensor.Tensor {
	sp := prof.Begin(prof.CatBackward, r.name)
	gx := r.Body.Backward(gy)
	if r.Proj != nil {
		// The projection's gradient buffer belongs to the projection
		// layer; it is only read here.
		pg := r.Proj.Backward(gy)
		tensor.AddInPlace(gx, pg)
	} else {
		tensor.AddInPlace(gx, gy)
	}
	sp.End()
	return gx
}

func (r *Residual) Params() []*Param {
	ps := r.Body.Params()
	if r.Proj != nil {
		ps = append(ps, r.Proj.Params()...)
	}
	return ps
}

func (r *Residual) StashBytes() int64 {
	n := r.Body.StashBytes()
	if r.Proj != nil {
		n += r.Proj.StashBytes()
	}
	return n
}

// FreezeHalfWeights freezes the body and projection where supported.
func (r *Residual) FreezeHalfWeights() {
	if f, ok := r.Body.(HalfFreezer); ok {
		f.FreezeHalfWeights()
	}
	if r.Proj != nil {
		if f, ok := r.Proj.(HalfFreezer); ok {
			f.FreezeHalfWeights()
		}
	}
}

// ResidentWeightBytes sums the body's and projection's storage-aware
// weight bytes.
func (r *Residual) ResidentWeightBytes() int64 {
	n := residentWeightBytes(r.Body)
	if r.Proj != nil {
		n += residentWeightBytes(r.Proj)
	}
	return n
}
