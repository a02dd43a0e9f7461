package layers

import (
	"fmt"

	"tbd/internal/tensor"
)

// Dense is a fully-connected layer y = act(x @ W + b) operating on
// [N, In] inputs. Inputs of higher rank are flattened to [N, In] first.
// Bias and activation are fused into the GEMM write-back (bit-identical
// to the unfused Dense + activation-layer composition); Act is ActNone by
// default, i.e. a plain linear layer.
type Dense struct {
	name     string
	In, Out  int
	W, B     *Param
	Act      tensor.ActKind
	useBias  bool
	frozen   *tensor.FrozenMatrix // replaces W.Value once frozen; non-nil disables training
	x        *tensor.Tensor       // cached input (feature map stash)
	out, gx  *tensor.Tensor       // previously returned buffers, recycled next call
	origDims []int
}

// NewDense constructs a dense layer with Xavier-initialized weights.
func NewDense(name string, in, out int, rng *tensor.RNG) *Dense {
	return &Dense{
		name:    name,
		In:      in,
		Out:     out,
		W:       NewParam(name+".W", tensor.XavierInit(rng, in, out, in, out)),
		B:       NewParam(name+".b", tensor.New(out)),
		useBias: true,
	}
}

// NewDenseNoBias constructs a dense layer without a bias term.
//
//tbd:api the bias-free projection TestResidualProjectionSkip checks, and the one-parameter net the checkpoint reshape test needs
func NewDenseNoBias(name string, in, out int, rng *tensor.RNG) *Dense {
	d := NewDense(name, in, out, rng)
	d.useBias = false
	return d
}

// NewDenseAct constructs a dense layer with a fused activation epilogue —
// a drop-in replacement for NewDense followed by a standalone activation
// layer, producing identical bits with one less full-tensor pass each way.
func NewDenseAct(name string, in, out int, act tensor.ActKind, rng *tensor.RNG) *Dense {
	d := NewDense(name, in, out, rng)
	d.Act = act
	return d
}

func (d *Dense) Name() string { return d.name }

func (d *Dense) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	if train && d.frozen != nil {
		panic(fmt.Sprintf("layers: %s has frozen weights; training is disabled", d.name))
	}
	d.origDims = append(d.origDims[:0], x.Shape()...)
	n := x.Numel() / d.In
	if n*d.In != x.Numel() {
		panic(fmt.Sprintf("layers: %s expects inner size %d, got shape %v", d.name, d.In, x.Shape()))
	}
	x2 := x.Reshape(n, d.In)
	// Each layer owns the tensors it created and recycles them on its next
	// call, once the previous iteration is provably consumed. The input
	// belongs to whichever layer produced it, so it is stashed but never
	// released here.
	d.out.Release()
	if train {
		d.x = x2
	} else {
		d.x = nil
	}
	var bias *tensor.Tensor
	if d.useBias {
		bias = d.B.Value
	}
	var y *tensor.Tensor
	if d.frozen != nil {
		y = tensor.MatMulFrozenBiasAct(x2, d.frozen, bias, d.Act)
	} else {
		y = tensor.MatMulBiasAct(x2, d.W.Value, bias, d.Act)
	}
	d.out = y
	// Preserve the input's leading dimensions: [..., In] -> [..., Out].
	if len(d.origDims) > 2 {
		outDims := append([]int(nil), d.origDims[:len(d.origDims)-1]...)
		outDims = append(outDims, d.Out)
		return y.Reshape(outDims...)
	}
	return y
}

func (d *Dense) Backward(gy *tensor.Tensor) *tensor.Tensor {
	d.backward(gy, true)
	return d.gx.Reshape(d.origDims...)
}

// BackwardParams is Backward without the input-gradient GEMM.
func (d *Dense) BackwardParams(gy *tensor.Tensor) { d.backward(gy, false) }

func (d *Dense) backward(gy *tensor.Tensor, needGX bool) {
	requireForward(d.name, d.x)
	d.gx.Release()
	d.gx = nil
	n := d.x.Dim(0)
	gz := gy.Reshape(n, d.Out)
	// With a fused activation the stashed output is post-activation, and
	// all three activations' derivatives are functions of that output, so
	// backprop through the epilogue needs no extra stash.
	var gzOwned *tensor.Tensor
	if d.Act != tensor.ActNone {
		gzOwned = tensor.ActBackward(d.Act, gz, d.out)
		gz = gzOwned
	}
	d.W.AddGradTransA(d.x, gz)
	if d.useBias {
		d.B.AddGrad(tensor.SumRows(gz))
	}
	if needGX {
		d.gx = tensor.MatMulTransB(gz, d.W.Value)
	}
	gzOwned.Release()
}

func (d *Dense) Params() []*Param {
	if d.frozen != nil {
		// Frozen weights are storage, not trainable parameters; only the
		// (still fp32) bias remains visible.
		if d.useBias {
			return []*Param{d.B}
		}
		return nil
	}
	if d.useBias {
		return []*Param{d.W, d.B}
	}
	return []*Param{d.W}
}

func (d *Dense) StashBytes() int64 { return bytesOf(d.x) }

// Freeze irreversibly replaces the weight matrix with the frozen matrix
// freeze returns for it (see Freezer): forward passes run the frozen GEMM,
// and the fp32 weight and gradient tensors are dropped. Training panics
// afterwards. Idempotent: a frozen layer does not call freeze.
func (d *Dense) Freeze(freeze func(w *Param) *tensor.FrozenMatrix) {
	if d.frozen != nil {
		return
	}
	d.frozen = freeze(d.W)
	d.W.Value, d.W.Grad = nil, nil
}

// Frozen returns the frozen matrix that replaced W, or nil before Freeze.
//
//tbd:api the fleet tests check that every replica serves the primary's frozen matrix, not a copy
func (d *Dense) Frozen() *tensor.FrozenMatrix { return d.frozen }

// ResidentWeightBytes implements WeightSizer: the frozen matrix's bytes
// once frozen (half a panel weight's under fp16), four a weight before.
func (d *Dense) ResidentWeightBytes() int64 {
	if d.frozen != nil {
		n := d.frozen.Bytes()
		if d.useBias {
			n += int64(d.B.Value.Numel()) * 4
		}
		return n
	}
	return ParamCount(d.Params()) * 4
}

// Flatten reshapes [N, ...] inputs to [N, F]. It is shape bookkeeping only.
type Flatten struct {
	name string
	dims []int
}

// NewFlatten constructs a flatten layer.
func NewFlatten(name string) *Flatten { return &Flatten{name: name} }

func (f *Flatten) Name() string { return f.name }

func (f *Flatten) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	f.dims = append(f.dims[:0], x.Shape()...)
	return x.Reshape(x.Dim(0), -1)
}

func (f *Flatten) Backward(gy *tensor.Tensor) *tensor.Tensor {
	return gy.Reshape(f.dims...)
}

func (f *Flatten) Params() []*Param  { return nil }
func (f *Flatten) StashBytes() int64 { return 0 }
