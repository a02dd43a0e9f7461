package layers

import (
	"fmt"

	"tbd/internal/tensor"
)

// Embedding maps integer token ids to dense vectors. The input tensor holds
// token ids stored as float32 (the convention used throughout the suite for
// sequence models); output shape is input shape + [Dim].
type Embedding struct {
	name       string
	Vocab, Dim int
	W          *Param
	ids        []int
	inShape    []int
}

// NewEmbedding constructs an embedding table with N(0, 0.01) init.
func NewEmbedding(name string, vocab, dim int, rng *tensor.RNG) *Embedding {
	return &Embedding{
		name: name, Vocab: vocab, Dim: dim,
		W: NewParam(name+".W", tensor.RandNormal(rng, 0, 0.1, vocab, dim)),
	}
}

func (l *Embedding) Name() string { return l.name }

func (l *Embedding) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	n := x.Numel()
	ids := make([]int, n)
	for i, v := range x.Data() {
		id := int(v)
		if id < 0 || id >= l.Vocab {
			panic(fmt.Sprintf("layers: %s token id %d out of vocab %d", l.name, id, l.Vocab))
		}
		ids[i] = id
	}
	outShape := append(append([]int(nil), x.Shape()...), l.Dim)
	out := tensor.New(outShape...)
	for i, id := range ids {
		copy(out.Data()[i*l.Dim:(i+1)*l.Dim], l.W.Value.Data()[id*l.Dim:(id+1)*l.Dim])
	}
	if train {
		l.ids = ids
		l.inShape = append([]int(nil), x.Shape()...)
	} else {
		l.ids = nil
	}
	return out
}

// BackwardParams is Backward without the all-zero input gradient.
func (l *Embedding) BackwardParams(gy *tensor.Tensor) {
	if l.ids == nil {
		panic(fmt.Sprintf("layers: %s.Backward called before Forward(train=true)", l.name))
	}
	for i, id := range l.ids {
		g := gy.Data()[i*l.Dim : (i+1)*l.Dim]
		dst := l.W.gradAccum()[id*l.Dim : (id+1)*l.Dim]
		for j, v := range g {
			dst[j] += v
		}
	}
}

func (l *Embedding) Backward(gy *tensor.Tensor) *tensor.Tensor {
	l.BackwardParams(gy)
	// Token ids are not differentiable; return a zero gradient of the input
	// shape so graph plumbing stays uniform.
	return tensor.New(l.inShape...)
}

func (l *Embedding) Params() []*Param  { return []*Param{l.W} }
func (l *Embedding) StashBytes() int64 { return int64(len(l.ids)) * 8 }
