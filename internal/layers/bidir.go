package layers

import (
	"fmt"

	"tbd/internal/tensor"
)

// concat runs parallel branches on one input and joins their outputs
// along one axis; the branches' input gradients are summed.
type concat struct {
	name     string
	axis     int
	Branches []Layer
	dims     []int            // each branch's size along axis, recorded at forward
	out      *tensor.Tensor   // previously returned buffer, recycled next call
	parts    []*tensor.Tensor // gradient slices handed to the branches, recycled next call
}

func (l *concat) Name() string { return l.name }

// rowsInner splits shape around the join axis: the number of rows before
// it and the number of elements per unit of it.
func (l *concat) rowsInner(shape []int) (rows, inner int) {
	rows, inner = 1, 1
	for _, d := range shape[:l.axis] {
		rows *= d
	}
	for _, d := range shape[l.axis+1:] {
		inner *= d
	}
	return rows, inner
}

func (l *concat) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	outs := make([]*tensor.Tensor, len(l.Branches))
	l.dims = l.dims[:0]
	var shape []int
	for i, br := range l.Branches {
		y := br.Forward(x, train)
		if y.Rank() <= l.axis {
			panic(fmt.Sprintf("layers: %s branch %d produced rank %d", l.name, i, y.Rank()))
		}
		if i == 0 {
			shape = append(shape, y.Shape()...)
			shape[l.axis] = 0
		}
		for d, size := range y.Shape() {
			if d != l.axis && (y.Rank() != len(shape) || size != shape[d]) {
				panic(fmt.Sprintf("layers: %s branch %d shape mismatch %v", l.name, i, y.Shape()))
			}
		}
		outs[i] = y
		l.dims = append(l.dims, y.Dim(l.axis))
		shape[l.axis] += y.Dim(l.axis)
	}
	l.out.Release()
	l.out = tensor.AcquireDirty(shape...)
	rows, inner := l.rowsInner(shape)
	width, off := shape[l.axis]*inner, 0
	for i, y := range outs {
		w := l.dims[i] * inner
		for r := 0; r < rows; r++ {
			copy(l.out.Data()[r*width+off:r*width+off+w], y.Data()[r*w:(r+1)*w])
		}
		off += w
	}
	return l.out
}

func (l *concat) Backward(gy *tensor.Tensor) *tensor.Tensor {
	release(l.parts...)
	l.parts = l.parts[:0]
	shape := append([]int(nil), gy.Shape()...)
	rows, inner := l.rowsInner(shape)
	width, off := shape[l.axis]*inner, 0
	var gx *tensor.Tensor
	for i, br := range l.Branches {
		shape[l.axis] = l.dims[i]
		w := l.dims[i] * inner
		g := tensor.AcquireDirty(shape...)
		for r := 0; r < rows; r++ {
			copy(g.Data()[r*w:(r+1)*w], gy.Data()[r*width+off:r*width+off+w])
		}
		off += w
		l.parts = append(l.parts, g)
		if bg := br.Backward(g); gx == nil {
			gx = bg
		} else {
			tensor.AddInPlace(gx, bg)
		}
	}
	return gx
}

func (l *concat) Params() []*Param {
	var ps []*Param
	for _, br := range l.Branches {
		ps = append(ps, br.Params()...)
	}
	return ps
}

func (l *concat) StashBytes() int64 {
	var s int64
	for _, br := range l.Branches {
		s += br.StashBytes()
	}
	return s
}

// ConcatChannels merges parallel branches along the channel axis of NCHW
// tensors — the join of an Inception mixed block.
type ConcatChannels struct{ concat }

// NewConcatChannels builds the block from parallel branches.
func NewConcatChannels(name string, branches ...Layer) *ConcatChannels {
	if len(branches) == 0 {
		panic("layers: ConcatChannels needs at least one branch")
	}
	return &ConcatChannels{concat{name: name, axis: 1, Branches: branches}}
}

// Bidirectional runs two recurrent layers over a sequence — one walking it
// forward, one backward — and concatenates their outputs along the
// feature axis, producing [N, T, 2H]. Deep Speech 2 and GNMT-style
// encoders use exactly this structure.
type Bidirectional struct{ concat }

func newBidirectional(name string, fwd, bwd *recurrent) *Bidirectional {
	bwd.reverse = true
	return &Bidirectional{concat{name: name, axis: 2, Branches: []Layer{fwd, bwd}}}
}

// NewBiLSTM builds a bidirectional LSTM with fresh weights per direction.
func NewBiLSTM(name string, in, hidden int, rng *tensor.RNG) *Bidirectional {
	return newBidirectional(name,
		&NewLSTM(name+".fwd", in, hidden, rng).recurrent,
		&NewLSTM(name+".bwd", in, hidden, rng).recurrent)
}

// NewBiRNN builds a bidirectional vanilla RNN (the Deep Speech 2 layer).
func NewBiRNN(name string, in, hidden int, rng *tensor.RNG) *Bidirectional {
	return newBidirectional(name,
		&NewRNN(name+".fwd", in, hidden, rng).recurrent,
		&NewRNN(name+".bwd", in, hidden, rng).recurrent)
}
