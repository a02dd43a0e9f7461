package layers

import (
	"math"

	"tbd/internal/tensor"
)

// activation is the one pointwise activation layer, parametrised by kind:
// Forward is tensor.ActForward and Backward is tensor.ActBackward, the
// definitions the fused Dense and Conv2D epilogues use, so a fused layer
// and its "layer, then activation" spelling train bit-identically. All
// three kinds have a derivative in terms of the output, so the stash is an
// alias of the returned buffer and costs no second tensor.
type activation struct {
	name    string
	kind    tensor.ActKind
	y       *tensor.Tensor // train-mode alias of out; nil after an eval Forward
	out, gx *tensor.Tensor // previously returned buffers
}

// NewReLU constructs a ReLU activation, max(0, x) elementwise.
func NewReLU(name string) Layer { return &activation{name: name, kind: tensor.ActReLU} }

// NewTanh constructs a tanh activation.
//
//tbd:api the unfused activation TestFusedNetworkTrainsBitIdentical checks the fused epilogue against
func NewTanh(name string) Layer { return &activation{name: name, kind: tensor.ActTanh} }

func (l *activation) Name() string { return l.name }

func (l *activation) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	l.out.Release()
	y := tensor.ActForward(l.kind, x)
	l.out = y
	if train {
		l.y = y //tbd:retain alias of l.out, which the next Forward releases
	} else {
		l.y = nil
	}
	return y
}

func (l *activation) Backward(gy *tensor.Tensor) *tensor.Tensor {
	requireForward(l.name, l.y)
	l.gx.Release()
	gx := tensor.ActBackward(l.kind, gy, l.y)
	l.gx = gx
	return gx
}

func (l *activation) Params() []*Param  { return nil }
func (l *activation) StashBytes() int64 { return bytesOf(l.y) }

// LeakyReLU applies x if x>0 else alpha*x (used by WGAN critics).
type LeakyReLU struct {
	name    string
	Alpha   float32
	x       *tensor.Tensor
	out, gx *tensor.Tensor
}

// NewLeakyReLU constructs a leaky ReLU with the given negative slope.
func NewLeakyReLU(name string, alpha float32) *LeakyReLU {
	return &LeakyReLU{name: name, Alpha: alpha}
}

func (l *LeakyReLU) Name() string { return l.name }

// pickPositive returns pos where x > 0 and rest elsewhere (x <= 0, -0,
// NaN). Like tensor's ReLU it decides on x's bit pattern — subtracting one
// wraps +0 past +Inf, the last pattern kept — which compiles to a
// conditional move where `x > 0` compiles to a branch taken half the time.
func pickPositive(x, pos, rest float32) float32 {
	r := math.Float32bits(rest)
	if math.Float32bits(x)-1 < 0x7f800000 {
		r = math.Float32bits(pos)
	}
	return math.Float32frombits(r)
}

func (l *LeakyReLU) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	l.out.Release()
	if train {
		l.x = x
	} else {
		l.x = nil
	}
	y := tensor.AcquireDirty(x.Shape()...)
	yv := y.Data()
	for i, v := range x.Data() {
		yv[i] = pickPositive(v, v, l.Alpha*v)
	}
	l.out = y
	return y
}

func (l *LeakyReLU) Backward(gy *tensor.Tensor) *tensor.Tensor {
	requireForward(l.name, l.x)
	l.gx.Release()
	out := tensor.AcquireDirty(gy.Shape()...)
	l.gx = out
	ov, gv := out.Data(), gy.Data()
	for i, v := range l.x.Data() {
		ov[i] = pickPositive(v, gv[i], l.Alpha*gv[i])
	}
	return out
}

func (l *LeakyReLU) Params() []*Param  { return nil }
func (l *LeakyReLU) StashBytes() int64 { return bytesOf(l.x) }
