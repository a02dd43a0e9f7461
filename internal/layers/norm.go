package layers

import (
	"fmt"
	"math"

	"tbd/internal/tensor"
)

// BatchNorm2D normalizes each channel of an NCHW tensor over the batch and
// spatial dimensions, then applies a learned scale and shift. Running
// statistics are tracked for inference. The paper's Tables 5 and 6 single
// out exactly these kernels (bn_fw_tr / bn_bw) as long-duration,
// low-FP32-utilization GPU work.
type BatchNorm2D struct {
	name     string
	C        int
	Eps      float32
	Momentum float32
	Gamma    *Param
	Beta     *Param

	runningMean []float32
	runningVar  []float32

	// Cached forward state for backward.
	xhat   *tensor.Tensor
	invStd []float32
	n      int // elements per channel in the normalized batch

	out, gx *tensor.Tensor // previously returned buffers
}

// NewBatchNorm2D constructs a batch-norm layer over c channels.
func NewBatchNorm2D(name string, c int) *BatchNorm2D {
	bn := &BatchNorm2D{
		name: name, C: c, Eps: 1e-5, Momentum: 0.9,
		Gamma:       NewParam(name+".gamma", tensor.Ones(c)),
		Beta:        NewParam(name+".beta", tensor.New(c)),
		runningMean: make([]float32, c),
		runningVar:  make([]float32, c),
	}
	for i := range bn.runningVar {
		bn.runningVar[i] = 1
	}
	return bn
}

func (l *BatchNorm2D) Name() string { return l.name }

func (l *BatchNorm2D) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	if x.Rank() != 4 || x.Dim(1) != l.C {
		panic(fmt.Sprintf("layers: %s expects [N,%d,H,W], got %v", l.name, l.C, x.Shape()))
	}
	n, c, h, w := x.Dim(0), x.Dim(1), x.Dim(2), x.Dim(3)
	plane := h * w
	m := n * plane // normalization population per channel
	l.xhat.Release()
	l.out.Release()
	// Every element of out (and xhat below) is stored by the loops that
	// follow, so the buffers can come back dirty.
	out := tensor.AcquireDirty(x.Shape()...)
	l.out = out

	if !train {
		for ch := 0; ch < c; ch++ {
			inv := float32(1 / math.Sqrt(float64(l.runningVar[ch])+float64(l.Eps)))
			g, b := l.Gamma.Value.Data()[ch], l.Beta.Value.Data()[ch]
			mu := l.runningMean[ch]
			for bi := 0; bi < n; bi++ {
				src := x.Data()[(bi*c+ch)*plane : (bi*c+ch+1)*plane]
				dst := out.Data()[(bi*c+ch)*plane : (bi*c+ch+1)*plane]
				for i, v := range src {
					dst[i] = g*(v-mu)*inv + b
				}
			}
		}
		l.xhat, l.invStd = nil, l.invStd[:0]
		return out
	}

	xhat := tensor.AcquireDirty(x.Shape()...)
	invStd := l.invStd
	if cap(invStd) < c {
		invStd = make([]float32, c)
	}
	invStd = invStd[:c]
	for ch := 0; ch < c; ch++ {
		var sum, sq float64
		for bi := 0; bi < n; bi++ {
			src := x.Data()[(bi*c+ch)*plane : (bi*c+ch+1)*plane]
			for _, v := range src {
				sum += float64(v)
				sq += float64(v) * float64(v)
			}
		}
		mean := sum / float64(m)
		variance := sq/float64(m) - mean*mean
		if variance < 0 {
			variance = 0
		}
		inv := float32(1 / math.Sqrt(variance+float64(l.Eps)))
		invStd[ch] = inv
		l.runningMean[ch] = l.Momentum*l.runningMean[ch] + (1-l.Momentum)*float32(mean)
		l.runningVar[ch] = l.Momentum*l.runningVar[ch] + (1-l.Momentum)*float32(variance)
		g, b := l.Gamma.Value.Data()[ch], l.Beta.Value.Data()[ch]
		for bi := 0; bi < n; bi++ {
			src := x.Data()[(bi*c+ch)*plane : (bi*c+ch+1)*plane]
			xh := xhat.Data()[(bi*c+ch)*plane : (bi*c+ch+1)*plane]
			dst := out.Data()[(bi*c+ch)*plane : (bi*c+ch+1)*plane]
			for i, v := range src {
				nrm := (v - float32(mean)) * inv
				xh[i] = nrm
				dst[i] = g*nrm + b
			}
		}
	}
	l.xhat = xhat
	l.invStd = invStd
	l.n = m
	return out
}

func (l *BatchNorm2D) Backward(gy *tensor.Tensor) *tensor.Tensor {
	requireForward(l.name, l.xhat)
	l.gx.Release()
	n, c := gy.Dim(0), gy.Dim(1)
	plane := gy.Dim(2) * gy.Dim(3)
	m := float32(l.n)
	gx := tensor.AcquireDirty(gy.Shape()...)
	l.gx = gx
	gBeta, gGamma := l.Beta.gradAccum(), l.Gamma.gradAccum()
	for ch := 0; ch < c; ch++ {
		var sumG, sumGX float64
		for bi := 0; bi < n; bi++ {
			g := gy.Data()[(bi*c+ch)*plane : (bi*c+ch+1)*plane]
			xh := l.xhat.Data()[(bi*c+ch)*plane : (bi*c+ch+1)*plane]
			for i, v := range g {
				sumG += float64(v)
				sumGX += float64(v) * float64(xh[i])
			}
		}
		gBeta[ch] += float32(sumG)
		gGamma[ch] += float32(sumGX)
		gamma := l.Gamma.Value.Data()[ch]
		inv := l.invStd[ch]
		for bi := 0; bi < n; bi++ {
			g := gy.Data()[(bi*c+ch)*plane : (bi*c+ch+1)*plane]
			xh := l.xhat.Data()[(bi*c+ch)*plane : (bi*c+ch+1)*plane]
			dst := gx.Data()[(bi*c+ch)*plane : (bi*c+ch+1)*plane]
			for i, v := range g {
				dst[i] = gamma * inv / m * (m*v - float32(sumG) - xh[i]*float32(sumGX))
			}
		}
	}
	return gx
}

func (l *BatchNorm2D) Params() []*Param  { return []*Param{l.Gamma, l.Beta} }
func (l *BatchNorm2D) StashBytes() int64 { return bytesOf(l.xhat) + int64(len(l.invStd))*4 }

// LayerNorm normalizes the last dimension of an [..., F] tensor, the
// normalization used by the Transformer's attention blocks.
type LayerNorm struct {
	name  string
	F     int
	Eps   float32
	Gamma *Param
	Beta  *Param

	xhat    *tensor.Tensor
	invStd  []float32
	out, gx *tensor.Tensor
}

// NewLayerNorm constructs a layer-norm over feature size f.
func NewLayerNorm(name string, f int) *LayerNorm {
	return &LayerNorm{
		name: name, F: f, Eps: 1e-5,
		Gamma: NewParam(name+".gamma", tensor.Ones(f)),
		Beta:  NewParam(name+".beta", tensor.New(f)),
	}
}

func (l *LayerNorm) Name() string { return l.name }

func (l *LayerNorm) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	f := l.F
	if x.Numel()%f != 0 {
		panic(fmt.Sprintf("layers: %s expects inner size %d, got %v", l.name, f, x.Shape()))
	}
	rows := x.Numel() / f
	l.xhat.Release()
	l.out.Release()
	out := tensor.AcquireDirty(x.Shape()...)
	l.out = out
	var xhat *tensor.Tensor
	var invStd []float32
	if train {
		xhat = tensor.AcquireDirty(x.Shape()...)
		invStd = l.invStd
		if cap(invStd) < rows {
			invStd = make([]float32, rows)
		}
		invStd = invStd[:rows]
	}
	for r := 0; r < rows; r++ {
		src := x.Data()[r*f : (r+1)*f]
		dst := out.Data()[r*f : (r+1)*f]
		var sum, sq float64
		for _, v := range src {
			sum += float64(v)
			sq += float64(v) * float64(v)
		}
		mean := sum / float64(f)
		variance := sq/float64(f) - mean*mean
		if variance < 0 {
			variance = 0
		}
		inv := float32(1 / math.Sqrt(variance+float64(l.Eps)))
		for i, v := range src {
			nrm := (v - float32(mean)) * inv
			if xhat != nil {
				xhat.Data()[r*f+i] = nrm
			}
			dst[i] = l.Gamma.Value.Data()[i]*nrm + l.Beta.Value.Data()[i]
		}
		if invStd != nil {
			invStd[r] = inv
		}
	}
	l.xhat, l.invStd = xhat, invStd
	return out
}

func (l *LayerNorm) Backward(gy *tensor.Tensor) *tensor.Tensor {
	requireForward(l.name, l.xhat)
	l.gx.Release()
	f := l.F
	rows := gy.Numel() / f
	gx := tensor.AcquireDirty(gy.Shape()...)
	l.gx = gx
	gBeta, gGamma := l.Beta.gradAccum(), l.Gamma.gradAccum()
	for r := 0; r < rows; r++ {
		g := gy.Data()[r*f : (r+1)*f]
		xh := l.xhat.Data()[r*f : (r+1)*f]
		var sumG, sumGX float64
		for i, v := range g {
			gg := float64(v) * float64(l.Gamma.Value.Data()[i])
			sumG += gg
			sumGX += gg * float64(xh[i])
			gGamma[i] += v * xh[i]
			gBeta[i] += v
		}
		inv := l.invStd[r]
		fm := float32(f)
		dst := gx.Data()[r*f : (r+1)*f]
		for i, v := range g {
			gg := v * l.Gamma.Value.Data()[i]
			dst[i] = inv / fm * (fm*gg - float32(sumG) - xh[i]*float32(sumGX))
		}
	}
	return gx
}

func (l *LayerNorm) Params() []*Param  { return []*Param{l.Gamma, l.Beta} }
func (l *LayerNorm) StashBytes() int64 { return bytesOf(l.xhat) + int64(len(l.invStd))*4 }
