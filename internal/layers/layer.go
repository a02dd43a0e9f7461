// Package layers implements the neural-network layer zoo used by every TBD
// benchmark model: dense, convolution, pooling, normalization, activation,
// dropout, embedding, recurrent (RNN/GRU/LSTM), and attention layers, each
// with an explicit forward and backward pass and owned parameters.
//
// Layers cache the intermediate results (feature maps) they need for the
// backward pass, exactly the data structures whose memory footprint the
// paper's memory profiler attributes to the "feature maps" category; the
// graph package accounts for them via StashBytes.
package layers

import (
	"fmt"

	"tbd/internal/tensor"
)

// Param is one trainable parameter tensor together with its gradient
// accumulator. Optimizers consume Params; the memory profiler counts Value
// as "weights" and Grad as "weight gradients".
//
// ZeroGrad marks Grad untouched: the first layer write after it lands in
// Grad itself, later ones add. Code outside the package that fills Grad
// writes and then steps, never writes and then calls AddGrad (an overwrite).
type Param struct {
	Name  string
	Value *tensor.Tensor
	Grad  *tensor.Tensor

	untouched bool // Grad is all zeros since ZeroGrad: a write may replace it
}

// NewParam allocates a parameter around an initialized value tensor.
func NewParam(name string, value *tensor.Tensor) *Param {
	return &Param{Name: name, Value: value, Grad: tensor.New(value.Shape()...)}
}

// ZeroGrad clears the accumulated gradient.
func (p *Param) ZeroGrad() {
	p.Grad.Zero()
	p.untouched = true
}

// AddGrad accumulates a finished gradient g into p.Grad and releases g.
// Every tensor-shaped weight gradient in the package is written here, so
// the temporary is returned to the pool in one place. A first write copies
// where it once added to zeros: the same bits, but a -0 in g stays -0.
func (p *Param) AddGrad(g *tensor.Tensor) {
	if p.untouched {
		p.Grad.CopyFrom(g)
	} else {
		tensor.AddInPlace(p.Grad, g)
	}
	p.untouched = false
	g.Release()
}

// AddGradTransA accumulates aᵀ·b into p.Grad: the gradient of a weight W
// used as y = a·W, given b = dL/dy. A first write is one GEMM into Grad.
func (p *Param) AddGradTransA(a, b *tensor.Tensor) {
	if p.untouched {
		p.untouched = false
		tensor.MatMulTransAInto(p.Grad, a, b)
		return
	}
	p.AddGrad(tensor.MatMulTransA(a, b))
}

// gradAccum returns Grad's elements for a layer that adds into them one at
// a time; Grad then counts as written.
func (p *Param) gradAccum() []float32 {
	p.untouched = false
	return p.Grad.Data()
}

// BackwardParams runs l's backward pass for a caller that will not read the
// input gradient: layers that can skip computing it do, the rest run Backward.
func BackwardParams(l Layer, gy *tensor.Tensor) {
	if pb, ok := l.(interface{ BackwardParams(*tensor.Tensor) }); ok {
		pb.BackwardParams(gy)
	} else {
		l.Backward(gy)
	}
}

// Layer is a differentiable network stage. Forward may cache activations
// when train is true; Backward consumes the most recent cached forward
// state and returns the gradient with respect to the layer input.
//
// # Buffer lifetime
//
// Layers recycle the pool-backed tensors they return: the output of
// Forward is valid only until the layer's next Forward call, and the
// gradient returned by Backward only until its next Backward call, at
// which point the layer Releases the old buffer back to the tensor pool
// and it may be reused (zeroed and overwritten) by any subsequent op.
// Callers that need a layer result beyond one step — logits kept across
// iterations, activations stashed for later inspection — must Clone it.
// Retaining a stale reference yields silently corrupted data, not an
// error. tensor.SetDebugPoisonReleased(true) makes such use-after-release
// bugs loud in tests by filling released buffers with NaN. A weight
// gradient computed into a temporary goes through Param.AddGrad, which
// releases it; a step's first is computed in Grad itself (see Param). A
// caller that drops Backward's result calls BackwardParams: a Dense or
// Embedding first layer then computes no input gradient, and still releases
// its previous one.
type Layer interface {
	// Name returns a stable human-readable identifier.
	Name() string
	// Forward computes the layer output for x. The returned tensor is
	// owned by the layer and recycled on its next Forward call; Clone it
	// to keep it longer (see "Buffer lifetime" above).
	Forward(x *tensor.Tensor, train bool) *tensor.Tensor
	// Backward propagates the upstream gradient gy and accumulates
	// parameter gradients. It must be called after a Forward with
	// train=true. The returned gradient is owned by the layer and
	// recycled on its next Backward call (see "Buffer lifetime" above).
	Backward(gy *tensor.Tensor) *tensor.Tensor
	// Params returns the trainable parameters (possibly empty).
	Params() []*Param
	// StashBytes reports the bytes of feature maps currently cached for
	// the backward pass.
	StashBytes() int64
}

// HalfFreezer is implemented by layers and containers whose weights can
// be converted to fp16 inference storage (see Dense.FreezeHalfWeights).
// Containers forward the call to every capable child; layers without
// fp16 support are simply left at full precision.
type HalfFreezer interface {
	FreezeHalfWeights()
}

// WeightSizer reports resident weight bytes with storage-format
// awareness: fp16-frozen layers count two bytes per weight where the
// ParamCount-based default assumes four.
type WeightSizer interface {
	ResidentWeightBytes() int64
}

// residentWeightBytes returns l's resident weight bytes, preferring the
// layer's own storage-aware accounting.
func residentWeightBytes(l Layer) int64 {
	if s, ok := l.(WeightSizer); ok {
		return s.ResidentWeightBytes()
	}
	return ParamCount(l.Params()) * 4
}

// bytesOf returns the float32 payload size of t, tolerating nil.
func bytesOf(ts ...*tensor.Tensor) int64 {
	var n int64
	for _, t := range ts {
		if t != nil {
			n += int64(t.Numel()) * 4
		}
	}
	return n
}

// release returns finished temporaries to the pool.
func release(ts ...*tensor.Tensor) {
	for _, t := range ts {
		t.Release()
	}
}

// requireForward panics with a uniform message when Backward runs before
// Forward cached state.
func requireForward(name string, cached *tensor.Tensor) {
	if cached == nil {
		panic(fmt.Sprintf("layers: %s.Backward called before Forward(train=true)", name))
	}
}

// ParamCount sums the number of scalar weights across params.
func ParamCount(params []*Param) int64 {
	var n int64
	for _, p := range params {
		n += int64(p.Value.Numel())
	}
	return n
}
