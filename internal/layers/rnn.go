package layers

import (
	"fmt"
	"math"

	"tbd/internal/tensor"
)

// rnnStep holds the cached state of one timestep for backward-through-time.
type rnnStep struct {
	x, hPrev *tensor.Tensor
	h        *tensor.Tensor
}

// RNN is a vanilla tanh recurrent layer over [N, T, In] sequences producing
// [N, T, H]. Deep Speech 2 uses stacks of exactly this layer type (the
// paper notes DS2 uses "regular recurrent layers", not LSTM).
type RNN struct {
	name    string
	In, H   int
	Wx, Wh  *Param
	B       *Param
	steps   []rnnStep
	inShape []int
}

// NewRNN constructs a vanilla RNN layer.
func NewRNN(name string, in, h int, rng *tensor.RNG) *RNN {
	return &RNN{
		name: name, In: in, H: h,
		Wx: NewParam(name+".Wx", tensor.XavierInit(rng, in, h, in, h)),
		Wh: NewParam(name+".Wh", tensor.XavierInit(rng, h, h, h, h)),
		B:  NewParam(name+".b", tensor.New(h)),
	}
}

func (l *RNN) Name() string { return l.name }

// sliceStep extracts timestep t from x [N, T, F] as [N, F].
func sliceStep(x *tensor.Tensor, t, f int) *tensor.Tensor {
	n, T := x.Dim(0), x.Dim(1)
	out := tensor.New(n, f)
	for b := 0; b < n; b++ {
		src := x.Data()[(b*T+t)*f : (b*T+t+1)*f]
		copy(out.Data()[b*f:(b+1)*f], src)
	}
	return out
}

// storeStep writes a [N, F] tensor into timestep t of out [N, T, F].
func storeStep(out, v *tensor.Tensor, t, f int) {
	n, T := out.Dim(0), out.Dim(1)
	for b := 0; b < n; b++ {
		copy(out.Data()[(b*T+t)*f:(b*T+t+1)*f], v.Data()[b*f:(b+1)*f])
	}
}

func checkSeqInput(name string, x *tensor.Tensor, in int) (n, T int) {
	if x.Rank() != 3 || x.Dim(2) != in {
		panic(fmt.Sprintf("layers: %s expects [N,T,%d], got %v", name, in, x.Shape()))
	}
	return x.Dim(0), x.Dim(1)
}

func (l *RNN) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	n, T := checkSeqInput(l.name, x, l.In)
	l.inShape = append([]int(nil), x.Shape()...)
	out := tensor.New(n, T, l.H)
	h := tensor.New(n, l.H)
	if train {
		l.steps = l.steps[:0]
	} else {
		l.steps = nil
	}
	for t := 0; t < T; t++ {
		xt := sliceStep(x, t, l.In)
		z := tensor.MatMulParallel(xt, l.Wx.Value)
		tensor.AddInPlace(z, tensor.MatMulParallel(h, l.Wh.Value))
		z = tensor.AddRowBroadcast(z, l.B.Value)
		hNew := tensor.Apply(z, func(v float32) float32 { return float32(math.Tanh(float64(v))) })
		if train {
			l.steps = append(l.steps, rnnStep{x: xt, hPrev: h, h: hNew})
		}
		h = hNew
		storeStep(out, h, t, l.H)
	}
	return out
}

func (l *RNN) Backward(gy *tensor.Tensor) *tensor.Tensor {
	if l.steps == nil {
		panic(fmt.Sprintf("layers: %s.Backward called before Forward(train=true)", l.name))
	}
	n := l.inShape[0]
	T := l.inShape[1]
	gx := tensor.New(l.inShape...)
	gh := tensor.New(n, l.H) // gradient flowing into h from the future
	for t := T - 1; t >= 0; t-- {
		st := l.steps[t]
		g := sliceStep(gy, t, l.H)
		tensor.AddInPlace(g, gh)
		// Through tanh: dz = g * (1 - h²).
		dz := tensor.New(n, l.H)
		for i, hv := range st.h.Data() {
			dz.Data()[i] = g.Data()[i] * (1 - hv*hv)
		}
		tensor.AddInPlace(l.Wx.Grad, tensor.MatMulTransA(st.x, dz))
		tensor.AddInPlace(l.Wh.Grad, tensor.MatMulTransA(st.hPrev, dz))
		tensor.AddInPlace(l.B.Grad, tensor.SumRows(dz))
		storeStep(gx, tensor.MatMulTransB(dz, l.Wx.Value), t, l.In)
		gh = tensor.MatMulTransB(dz, l.Wh.Value)
	}
	return gx
}

func (l *RNN) Params() []*Param { return []*Param{l.Wx, l.Wh, l.B} }

func (l *RNN) StashBytes() int64 {
	var n int64
	for _, s := range l.steps {
		n += bytesOf(s.x, s.hPrev, s.h)
	}
	return n
}

// lstmStep caches one LSTM timestep's state.
type lstmStep struct {
	x, hPrev, cPrev      *tensor.Tensor
	i, f, g, o, c, tanhC *tensor.Tensor
}

// LSTM is a long short-term memory layer over [N, T, In] sequences
// producing [N, T, H]. It is the dominant layer of the paper's Seq2Seq
// models (NMT, Sockeye) and the source of Observations 5 and 7: each
// timestep issues many small GPU kernels that cannot keep the device busy.
type LSTM struct {
	name    string
	In, H   int
	Wx, Wh  *Param // [In, 4H], [H, 4H]; gate order i, f, g, o
	B       *Param // [4H]
	steps   []lstmStep
	inShape []int
	lastH   *tensor.Tensor
	lastC   *tensor.Tensor
	// Optional externally supplied initial state (consumed by one Forward).
	initH, initC *tensor.Tensor
}

// NewLSTM constructs an LSTM layer with forget-gate bias 1.
func NewLSTM(name string, in, h int, rng *tensor.RNG) *LSTM {
	b := tensor.New(4 * h)
	for i := h; i < 2*h; i++ {
		b.Data()[i] = 1 // forget gate bias
	}
	return &LSTM{
		name: name, In: in, H: h,
		Wx: NewParam(name+".Wx", tensor.XavierInit(rng, in, 4*h, in, 4*h)),
		Wh: NewParam(name+".Wh", tensor.XavierInit(rng, h, 4*h, h, 4*h)),
		B:  NewParam(name+".b", b),
	}
}

func (l *LSTM) Name() string { return l.name }

// LastState returns the final hidden and cell states from the most recent
// forward pass, used to seed decoder layers in seq2seq models.
func (l *LSTM) LastState() (h, c *tensor.Tensor) { return l.lastH, l.lastC }

// SetInitialState overrides the zero initial state for the next Forward.
func (l *LSTM) SetInitialState(h, c *tensor.Tensor) {
	l.initH, l.initC = h, c
}

func (l *LSTM) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	n, T := checkSeqInput(l.name, x, l.In)
	l.inShape = append([]int(nil), x.Shape()...)
	out := tensor.New(n, T, l.H)
	h := tensor.New(n, l.H)
	c := tensor.New(n, l.H)
	if l.initH != nil {
		h = l.initH.Clone()
		l.initH = nil
	}
	if l.initC != nil {
		c = l.initC.Clone()
		l.initC = nil
	}
	if train {
		l.steps = l.steps[:0]
	} else {
		l.steps = nil
	}
	H := l.H
	for t := 0; t < T; t++ {
		xt := sliceStep(x, t, l.In)
		z := tensor.MatMulParallel(xt, l.Wx.Value)
		tensor.AddInPlace(z, tensor.MatMulParallel(h, l.Wh.Value))
		z = tensor.AddRowBroadcast(z, l.B.Value)
		ig := tensor.New(n, H)
		fg := tensor.New(n, H)
		gg := tensor.New(n, H)
		og := tensor.New(n, H)
		cNew := tensor.New(n, H)
		tc := tensor.New(n, H)
		hNew := tensor.New(n, H)
		for b := 0; b < n; b++ {
			zr := z.Data()[b*4*H : (b+1)*4*H]
			for j := 0; j < H; j++ {
				iv := tensor.Sigmoid32(zr[j])
				fv := tensor.Sigmoid32(zr[H+j])
				gv := float32(math.Tanh(float64(zr[2*H+j])))
				ov := tensor.Sigmoid32(zr[3*H+j])
				cv := fv*c.Data()[b*H+j] + iv*gv
				tcv := float32(math.Tanh(float64(cv)))
				ig.Data()[b*H+j] = iv
				fg.Data()[b*H+j] = fv
				gg.Data()[b*H+j] = gv
				og.Data()[b*H+j] = ov
				cNew.Data()[b*H+j] = cv
				tc.Data()[b*H+j] = tcv
				hNew.Data()[b*H+j] = ov * tcv
			}
		}
		if train {
			l.steps = append(l.steps, lstmStep{x: xt, hPrev: h, cPrev: c, i: ig, f: fg, g: gg, o: og, c: cNew, tanhC: tc})
		}
		h, c = hNew, cNew
		storeStep(out, h, t, H)
	}
	l.lastH, l.lastC = h, c
	return out
}

// BackwardWithState is Backward plus an extra gradient (ghLast, gcLast)
// injected into the final hidden/cell state — needed when the last state
// seeds a downstream decoder. Either may be nil.
func (l *LSTM) BackwardWithState(gy, ghLast, gcLast *tensor.Tensor) *tensor.Tensor {
	if l.steps == nil {
		panic(fmt.Sprintf("layers: %s.Backward called before Forward(train=true)", l.name))
	}
	n, T, H := l.inShape[0], l.inShape[1], l.H
	gx := tensor.New(l.inShape...)
	gh := tensor.New(n, H)
	gc := tensor.New(n, H)
	if ghLast != nil {
		tensor.AddInPlace(gh, ghLast)
	}
	if gcLast != nil {
		tensor.AddInPlace(gc, gcLast)
	}
	for t := T - 1; t >= 0; t-- {
		st := l.steps[t]
		g := sliceStep(gy, t, H)
		tensor.AddInPlace(g, gh)
		dz := tensor.New(n, 4*H)
		for b := 0; b < n; b++ {
			for j := 0; j < H; j++ {
				k := b*H + j
				ghv := g.Data()[k]
				// h = o * tanh(c)
				do := ghv * st.tanhC.Data()[k]
				dc := ghv*st.o.Data()[k]*(1-st.tanhC.Data()[k]*st.tanhC.Data()[k]) + gc.Data()[k]
				di := dc * st.g.Data()[k]
				df := dc * st.cPrev.Data()[k]
				dg := dc * st.i.Data()[k]
				gc.Data()[k] = dc * st.f.Data()[k] // flows to cPrev
				zr := dz.Data()[b*4*H : (b+1)*4*H]
				zr[j] = di * st.i.Data()[k] * (1 - st.i.Data()[k])
				zr[H+j] = df * st.f.Data()[k] * (1 - st.f.Data()[k])
				zr[2*H+j] = dg * (1 - st.g.Data()[k]*st.g.Data()[k])
				zr[3*H+j] = do * st.o.Data()[k] * (1 - st.o.Data()[k])
			}
		}
		tensor.AddInPlace(l.Wx.Grad, tensor.MatMulTransA(st.x, dz))
		tensor.AddInPlace(l.Wh.Grad, tensor.MatMulTransA(st.hPrev, dz))
		tensor.AddInPlace(l.B.Grad, tensor.SumRows(dz))
		storeStep(gx, tensor.MatMulTransB(dz, l.Wx.Value), t, l.In)
		gh = tensor.MatMulTransB(dz, l.Wh.Value)
	}
	return gx
}

func (l *LSTM) Backward(gy *tensor.Tensor) *tensor.Tensor {
	return l.BackwardWithState(gy, nil, nil)
}

func (l *LSTM) Params() []*Param { return []*Param{l.Wx, l.Wh, l.B} }

func (l *LSTM) StashBytes() int64 {
	var n int64
	for _, s := range l.steps {
		n += bytesOf(s.x, s.hPrev, s.cPrev, s.i, s.f, s.g, s.o, s.c, s.tanhC)
	}
	return n
}
