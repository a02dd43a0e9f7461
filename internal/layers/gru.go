package layers

import (
	"fmt"
	"math"

	"tbd/internal/tensor"
)

// gruStep caches one GRU timestep.
type gruStep struct {
	x, hPrev *tensor.Tensor
	z, r, n  *tensor.Tensor
	hWhn     *tensor.Tensor // hPrev @ Whn (pre-reset-gate candidate term)
}

// GRU is a gated recurrent unit layer over [N, T, In] producing [N, T, H].
// Deep Speech 2's recurrent stack uses GRUs in several configurations.
type GRU struct {
	name    string
	In, H   int
	Wx      *Param // [In, 3H]; gate order z, r, n
	Wh      *Param // [H, 3H]
	B       *Param // [3H]
	steps   []gruStep
	inShape []int
}

// NewGRU constructs a GRU layer.
func NewGRU(name string, in, h int, rng *tensor.RNG) *GRU {
	return &GRU{
		name: name, In: in, H: h,
		Wx: NewParam(name+".Wx", tensor.XavierInit(rng, in, 3*h, in, 3*h)),
		Wh: NewParam(name+".Wh", tensor.XavierInit(rng, h, 3*h, h, 3*h)),
		B:  NewParam(name+".b", tensor.New(3*h)),
	}
}

func (l *GRU) Name() string { return l.name }

func (l *GRU) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	n, T := checkSeqInput(l.name, x, l.In)
	l.inShape = append([]int(nil), x.Shape()...)
	H := l.H
	out := tensor.New(n, T, H)
	h := tensor.New(n, H)
	if train {
		l.steps = l.steps[:0]
	} else {
		l.steps = nil
	}
	for t := 0; t < T; t++ {
		xt := sliceStep(x, t, l.In)
		zx := tensor.MatMulParallel(xt, l.Wx.Value) // [N, 3H]
		zh := tensor.MatMulParallel(h, l.Wh.Value)  // [N, 3H]
		zg := tensor.New(n, H)
		rg := tensor.New(n, H)
		ng := tensor.New(n, H)
		hWhn := tensor.New(n, H)
		hNew := tensor.New(n, H)
		for b := 0; b < n; b++ {
			zxr := zx.Data()[b*3*H : (b+1)*3*H]
			zhr := zh.Data()[b*3*H : (b+1)*3*H]
			for j := 0; j < H; j++ {
				zv := tensor.Sigmoid32(zxr[j] + zhr[j] + l.B.Value.Data()[j])
				rv := tensor.Sigmoid32(zxr[H+j] + zhr[H+j] + l.B.Value.Data()[H+j])
				hn := zhr[2*H+j]
				nv := float32(math.Tanh(float64(zxr[2*H+j] + rv*hn + l.B.Value.Data()[2*H+j])))
				k := b*H + j
				zg.Data()[k] = zv
				rg.Data()[k] = rv
				ng.Data()[k] = nv
				hWhn.Data()[k] = hn
				hNew.Data()[k] = (1-zv)*nv + zv*h.Data()[k]
			}
		}
		zx.Release() // gate pre-activations are folded into the step state above
		zh.Release()
		if train {
			l.steps = append(l.steps, gruStep{x: xt, hPrev: h, z: zg, r: rg, n: ng, hWhn: hWhn})
		}
		h = hNew
		storeStep(out, h, t, H)
	}
	return out
}

func (l *GRU) Backward(gy *tensor.Tensor) *tensor.Tensor {
	if l.steps == nil {
		panic(fmt.Sprintf("layers: %s.Backward called before Forward(train=true)", l.name))
	}
	n, T, H := l.inShape[0], l.inShape[1], l.H
	gx := tensor.New(l.inShape...)
	gh := tensor.New(n, H)
	for t := T - 1; t >= 0; t-- {
		st := l.steps[t]
		g := sliceStep(gy, t, H)
		tensor.AddInPlace(g, gh)
		dzx := tensor.New(n, 3*H) // gradient into zx rows (x-side pre-activations)
		dzh := tensor.New(n, 3*H) // gradient into zh rows (h-side pre-activations)
		ghNext := tensor.New(n, H)
		for b := 0; b < n; b++ {
			for j := 0; j < H; j++ {
				k := b*H + j
				ghv := g.Data()[k]
				zv, rv, nv := st.z.Data()[k], st.r.Data()[k], st.n.Data()[k]
				// h = (1-z)*n + z*hPrev
				dn := ghv * (1 - zv)
				dzGate := ghv * (st.hPrev.Data()[k] - nv)
				ghNext.Data()[k] += ghv * zv
				// n = tanh(zx_n + r*(hPrev@Whn) + b_n)
				dpre := dn * (1 - nv*nv)
				drGate := dpre * st.hWhn.Data()[k]
				dzSig := dzGate * zv * (1 - zv)
				drSig := drGate * rv * (1 - rv)
				zxr := dzx.Data()[b*3*H : (b+1)*3*H]
				zhr := dzh.Data()[b*3*H : (b+1)*3*H]
				zxr[j] = dzSig
				zhr[j] = dzSig
				zxr[H+j] = drSig
				zhr[H+j] = drSig
				zxr[2*H+j] = dpre
				zhr[2*H+j] = dpre * rv
				l.B.Grad.Data()[j] += dzSig
				l.B.Grad.Data()[H+j] += drSig
				l.B.Grad.Data()[2*H+j] += dpre
			}
		}
		tensor.AddInPlace(l.Wx.Grad, tensor.MatMulTransA(st.x, dzx))
		tensor.AddInPlace(l.Wh.Grad, tensor.MatMulTransA(st.hPrev, dzh))
		storeStep(gx, tensor.MatMulTransB(dzx, l.Wx.Value), t, l.In)
		tensor.AddInPlace(ghNext, tensor.MatMulTransB(dzh, l.Wh.Value))
		gh = ghNext
	}
	return gx
}

func (l *GRU) Params() []*Param { return []*Param{l.Wx, l.Wh, l.B} }

func (l *GRU) StashBytes() int64 {
	var n int64
	for _, s := range l.steps {
		n += bytesOf(s.x, s.hPrev, s.z, s.r, s.n, s.hWhn)
	}
	return n
}
