package layers

import (
	"fmt"

	"tbd/internal/tensor"
)

// Conv2D is a 2-D convolution over NCHW inputs with optional bias and an
// optional activation; both are fused into the per-image GEMM write-back,
// bit-identical to the unfused convolution + bias pass + activation-layer
// composition. Act is ActNone by default.
type Conv2D struct {
	name                string
	InC, OutC           int
	KH, KW, Stride, Pad int
	W, B                *Param
	Act                 tensor.ActKind
	useBias             bool
	x                   *tensor.Tensor
	cols                *tensor.Tensor // im2col lowering kept for backward
	out, gx             *tensor.Tensor // previously returned buffers
}

// NewConv2D constructs a convolution with He-initialized weights (the
// standard for the ReLU CNNs in the suite).
func NewConv2D(name string, inC, outC, k, stride, pad int, rng *tensor.RNG) *Conv2D {
	fanIn := inC * k * k
	return &Conv2D{
		name: name, InC: inC, OutC: outC,
		KH: k, KW: k, Stride: stride, Pad: pad,
		W:       NewParam(name+".W", tensor.HeInit(rng, fanIn, outC, inC, k, k)),
		B:       NewParam(name+".b", tensor.New(outC)),
		useBias: true,
	}
}

// NewConv2DNoBias constructs a convolution without bias (the usual choice
// before a BatchNorm).
func NewConv2DNoBias(name string, inC, outC, k, stride, pad int, rng *tensor.RNG) *Conv2D {
	c := NewConv2D(name, inC, outC, k, stride, pad, rng)
	c.useBias = false
	return c
}

// NewConv2DAct constructs a convolution with a fused activation epilogue —
// a drop-in replacement for NewConv2D followed by a standalone activation
// layer, producing identical bits with one less full-tensor pass each way.
func NewConv2DAct(name string, inC, outC, k, stride, pad int, act tensor.ActKind, rng *tensor.RNG) *Conv2D {
	c := NewConv2D(name, inC, outC, k, stride, pad, rng)
	c.Act = act
	return c
}

func (c *Conv2D) Name() string { return c.name }

func (c *Conv2D) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	if x.Rank() != 4 || x.Dim(1) != c.InC {
		panic(fmt.Sprintf("layers: %s expects [N,%d,H,W], got %v", c.name, c.InC, x.Shape()))
	}
	c.out.Release()
	c.cols.Release()
	var bias *tensor.Tensor
	if c.useBias {
		// Bias is per output channel (= per GEMM row), broadcast over N
		// and spatial dims by the fused epilogue.
		bias = c.B.Value
	}
	var y *tensor.Tensor
	if train {
		c.x = x
		// Keep the lowering for the backward pass — recomputing im2col is
		// the textbook workspace-memory-for-throughput trade.
		y, c.cols = tensor.Conv2DWithColsFused(x, c.W.Value, bias, c.Act, c.Stride, c.Pad)
	} else {
		c.x = nil
		c.cols = nil
		y = tensor.Conv2DFused(x, c.W.Value, bias, c.Act, c.Stride, c.Pad)
	}
	c.out = y
	return y
}

func (c *Conv2D) Backward(gy *tensor.Tensor) *tensor.Tensor {
	requireForward(c.name, c.x)
	c.gx.Release()
	gz := gy
	// See Dense.backward: the fused activation backprops from the stashed
	// post-activation output.
	var gzOwned *tensor.Tensor
	if c.Act != tensor.ActNone {
		gzOwned = tensor.ActBackward(c.Act, gy, c.out)
		gz = gzOwned
	}
	gx, gw := tensor.Conv2DBackwardCols(c.cols, c.x.Shape(), c.W.Value, gz, c.Stride, c.Pad)
	c.W.AddGrad(gw)
	if c.useBias {
		n, f, oh, ow := gz.Dim(0), gz.Dim(1), gz.Dim(2), gz.Dim(3)
		for b := 0; b < n; b++ {
			for ch := 0; ch < f; ch++ {
				plane := gz.Data()[(b*f+ch)*oh*ow : (b*f+ch+1)*oh*ow]
				var s float32
				for _, v := range plane {
					s += v
				}
				c.B.gradAccum()[ch] += s
			}
		}
	}
	gzOwned.Release()
	c.gx = gx
	return gx
}

func (c *Conv2D) Params() []*Param {
	if c.useBias {
		return []*Param{c.W, c.B}
	}
	return []*Param{c.W}
}

func (c *Conv2D) StashBytes() int64 { return bytesOf(c.x) + bytesOf(c.cols) }

// MaxPool2D is max pooling over NCHW inputs.
type MaxPool2D struct {
	name      string
	K, Stride int
	idx       []int
	inShape   []int
	out, gx   *tensor.Tensor
}

// NewMaxPool2D constructs a max-pooling layer.
func NewMaxPool2D(name string, k, stride int) *MaxPool2D {
	return &MaxPool2D{name: name, K: k, Stride: stride}
}

func (l *MaxPool2D) Name() string { return l.name }

func (l *MaxPool2D) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	l.out.Release()
	y, idx := tensor.MaxPool2D(x, l.K, l.Stride)
	l.out = y
	if train {
		l.idx = idx
		l.inShape = append([]int(nil), x.Shape()...)
	} else {
		l.idx = nil
	}
	return y
}

func (l *MaxPool2D) Backward(gy *tensor.Tensor) *tensor.Tensor {
	if l.idx == nil {
		panic(fmt.Sprintf("layers: %s.Backward called before Forward(train=true)", l.name))
	}
	l.gx.Release()
	gx := tensor.MaxPool2DBackward(gy, l.idx, l.inShape)
	l.gx = gx
	return gx
}

func (l *MaxPool2D) Params() []*Param  { return nil }
func (l *MaxPool2D) StashBytes() int64 { return int64(len(l.idx)) * 8 }

// AvgPool2D is average pooling over NCHW inputs.
type AvgPool2D struct {
	name      string
	K, Stride int
	inShape   []int
	out, gx   *tensor.Tensor
}

// NewAvgPool2D constructs an average-pooling layer.
func NewAvgPool2D(name string, k, stride int) *AvgPool2D {
	return &AvgPool2D{name: name, K: k, Stride: stride}
}

func (l *AvgPool2D) Name() string { return l.name }

func (l *AvgPool2D) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	l.out.Release()
	l.inShape = append([]int(nil), x.Shape()...)
	y := tensor.AvgPool2D(x, l.K, l.Stride)
	l.out = y
	return y
}

func (l *AvgPool2D) Backward(gy *tensor.Tensor) *tensor.Tensor {
	l.gx.Release()
	gx := tensor.AvgPool2DBackward(gy, l.inShape, l.K, l.Stride)
	l.gx = gx
	return gx
}

func (l *AvgPool2D) Params() []*Param  { return nil }
func (l *AvgPool2D) StashBytes() int64 { return 0 }

// GlobalAvgPool2D reduces each NCHW channel plane to its mean, producing
// [N, C].
type GlobalAvgPool2D struct {
	name    string
	inShape []int
	out, gx *tensor.Tensor
}

// NewGlobalAvgPool2D constructs a global average pooling layer.
func NewGlobalAvgPool2D(name string) *GlobalAvgPool2D {
	return &GlobalAvgPool2D{name: name}
}

func (l *GlobalAvgPool2D) Name() string { return l.name }

func (l *GlobalAvgPool2D) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	n, c, h, w := x.Dim(0), x.Dim(1), x.Dim(2), x.Dim(3)
	l.out.Release()
	l.inShape = append([]int(nil), x.Shape()...)
	out := tensor.AcquireDirty(n, c)
	l.out = out
	inv := 1 / float32(h*w)
	for b := 0; b < n; b++ {
		for ch := 0; ch < c; ch++ {
			plane := x.Data()[(b*c+ch)*h*w : (b*c+ch+1)*h*w]
			var s float32
			for _, v := range plane {
				s += v
			}
			out.Data()[b*c+ch] = s * inv
		}
	}
	return out
}

func (l *GlobalAvgPool2D) Backward(gy *tensor.Tensor) *tensor.Tensor {
	n, c, h, w := l.inShape[0], l.inShape[1], l.inShape[2], l.inShape[3]
	l.gx.Release()
	gx := tensor.AcquireDirty(l.inShape...)
	l.gx = gx
	inv := 1 / float32(h*w)
	for b := 0; b < n; b++ {
		for ch := 0; ch < c; ch++ {
			g := gy.Data()[b*c+ch] * inv
			plane := gx.Data()[(b*c+ch)*h*w : (b*c+ch+1)*h*w]
			for i := range plane {
				plane[i] = g
			}
		}
	}
	return gx
}

func (l *GlobalAvgPool2D) Params() []*Param  { return nil }
func (l *GlobalAvgPool2D) StashBytes() int64 { return 0 }
