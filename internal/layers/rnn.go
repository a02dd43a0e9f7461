package layers

import (
	"fmt"
	"math"

	"tbd/internal/tensor"
)

// cell is the arithmetic that tells one recurrent layer type from another;
// the driver below owns everything else. It works on whole-batch flat
// slices: a pre-activation block is [N, gates·H], the gates side by side
// in each row; a timestep's state is planes planes of [N, H], plane 0 h.
type cell struct {
	gates, planes int
	// forward computes one timestep's state cur from zx = x_t·Wx,
	// zh = h_{t-1}·Wh, the bias and the previous timestep's state.
	forward func(n, h int, zx, zh, bias, prev, cur []float32)
	// backward takes g = dL/dh_t to the pre-activation gradients dzx (of
	// zx) and dzh (of zh) and adds the bias gradient to b. Gradient that
	// reaches h_{t-1} without passing through Wh is added to ghPrev.
	// carry, zero at the last timestep, is the cell's own from one call to
	// the next (the LSTM's cell-state gradient).
	backward func(n, h int, g, prev, cur []float32, dzx, dzh *tensor.Tensor, b *Param, ghPrev, carry []float32)
}

// recurrent is the one timestep loop under RNN and LSTM: it maps
// [N, T, In] to [N, T, H], owns the parameters, the per-timestep GEMMs,
// the train-mode stash and backpropagation through time, and asks its
// cell only for the gate arithmetic. Each timestep issues a handful of
// small kernels that cannot keep a device busy — the source of the
// paper's Observations 5 and 7.
type recurrent struct {
	name    string
	In, H   int
	Wx, Wh  *Param // [In, gates·H], [H, gates·H]
	B       *Param // [gates·H]
	cell    cell
	reverse bool // walk t = T-1 … 0: the backward half of a Bidirectional

	x *tensor.Tensor // stashed input; its producer owns it
	// states is the stashed [T+1, planes, N, H] state history: slot 0 the
	// zero initial state, slot s+1 what step s of the walk left.
	states  *tensor.Tensor
	out, gx *tensor.Tensor // previously returned buffers, recycled next call
}

func newRecurrent(name string, in, h int, c cell, rng *tensor.RNG) recurrent {
	g := c.gates * h
	return recurrent{
		name: name, In: in, H: h, cell: c,
		Wx: NewParam(name+".Wx", tensor.XavierInit(rng, in, g, in, g)),
		Wh: NewParam(name+".Wh", tensor.XavierInit(rng, h, g, h, g)),
		B:  NewParam(name+".b", tensor.New(g)),
	}
}

func (l *recurrent) Name() string { return l.name }

func (l *recurrent) Params() []*Param { return []*Param{l.Wx, l.Wh, l.B} }

func (l *recurrent) StashBytes() int64 { return bytesOf(l.x, l.states) }

// timestep maps the s-th step of the walk to its position in the sequence.
func (l *recurrent) timestep(s, T int) int {
	if l.reverse {
		return T - 1 - s
	}
	return s
}

// slot returns the i-th timestep state of a state history.
func slot(states *tensor.Tensor, i int) []float32 {
	sz := states.Numel() / states.Dim(0)
	return states.Data()[i*sz : (i+1)*sz]
}

// sliceStep copies timestep t of x [N, T, F] into dst [N, F].
func sliceStep(dst, x *tensor.Tensor, t int) {
	n, f, T := dst.Dim(0), dst.Dim(1), x.Dim(1)
	for b := 0; b < n; b++ {
		copy(dst.Data()[b*f:(b+1)*f], x.Data()[(b*T+t)*f:(b*T+t+1)*f])
	}
}

// storeStep writes v [N, F] into timestep t of out [N, T, F].
func storeStep(out *tensor.Tensor, v []float32, t int) {
	n, T, f := out.Dim(0), out.Dim(1), out.Dim(2)
	for b := 0; b < n; b++ {
		copy(out.Data()[(b*T+t)*f:(b*T+t+1)*f], v[b*f:(b+1)*f])
	}
}

func (l *recurrent) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	if x.Rank() != 3 || x.Dim(2) != l.In {
		panic(fmt.Sprintf("layers: %s expects [N,T,%d], got %v", l.name, l.In, x.Shape()))
	}
	n, T, H, zw := x.Dim(0), x.Dim(1), l.H, l.cell.gates*l.H
	l.out.Release()
	l.out = tensor.AcquireDirty(n, T, H)
	l.states.Release()
	l.x, l.states = nil, nil
	states := tensor.AcquireDirty(T+1, l.cell.planes, n, H)
	clear(slot(states, 0))
	xt, zx, zh := tensor.AcquireDirty(n, l.In), tensor.AcquireDirty(n, zw), tensor.AcquireDirty(n, zw)
	for s := 0; s < T; s++ {
		t := l.timestep(s, T)
		prev, cur := slot(states, s), slot(states, s+1)
		sliceStep(xt, x, t)
		tensor.MatMulInto(zx, xt, l.Wx.Value)
		tensor.MatMulInto(zh, tensor.FromSlice(prev[:n*H], n, H), l.Wh.Value)
		l.cell.forward(n, H, zx.Data(), zh.Data(), l.B.Value.Data(), prev, cur)
		storeStep(l.out, cur[:n*H], t)
	}
	release(xt, zx, zh)
	if train {
		l.x, l.states = x, states
	} else {
		states.Release()
	}
	return l.out
}

func (l *recurrent) Backward(gy *tensor.Tensor) *tensor.Tensor {
	requireForward(l.name, l.x)
	n, T, H, zw := l.x.Dim(0), l.x.Dim(1), l.H, l.cell.gates*l.H
	l.gx.Release()
	l.gx = tensor.AcquireDirty(n, T, l.In)
	xt, gxt := tensor.AcquireDirty(n, l.In), tensor.AcquireDirty(n, l.In)
	dzx, dzh := tensor.AcquireDirty(n, zw), tensor.AcquireDirty(n, zw)
	g, ghW := tensor.AcquireDirty(n, H), tensor.AcquireDirty(n, H)
	gh, carry := tensor.Acquire(n, H), tensor.Acquire(n, H)
	for s := T - 1; s >= 0; s-- {
		t := l.timestep(s, T)
		prev, cur := slot(l.states, s), slot(l.states, s+1)
		// dL/dh_t arrives from the layer above and from step s+1.
		sliceStep(g, gy, t)
		tensor.AddInPlace(g, gh)
		gh.Zero()
		l.cell.backward(n, H, g.Data(), prev, cur, dzx, dzh, l.B, gh.Data(), carry.Data())
		sliceStep(xt, l.x, t)
		l.Wx.AddGradTransA(xt, dzx)
		l.Wh.AddGradTransA(tensor.FromSlice(prev[:n*H], n, H), dzh)
		storeStep(l.gx, tensor.MatMulTransBInto(gxt, dzx, l.Wx.Value).Data(), t)
		tensor.AddInPlace(gh, tensor.MatMulTransBInto(ghW, dzh, l.Wh.Value))
	}
	release(xt, gxt, dzx, dzh, g, ghW, gh, carry)
	return l.gx
}

// sumPreact finishes backward for a cell whose two pre-activation blocks
// enter every gate as a plain sum: dzh is dzx, and the bias gradient is
// its column sums.
func sumPreact(dzx, dzh *tensor.Tensor, b *Param) {
	copy(dzh.Data(), dzx.Data())
	b.AddGrad(tensor.SumRows(dzx))
}

// RNN is a vanilla tanh recurrent layer over [N, T, In] sequences producing
// [N, T, H]. Deep Speech 2 uses stacks of exactly this layer type (the
// paper notes DS2 uses "regular recurrent layers", not LSTM).
type RNN struct{ recurrent }

// NewRNN constructs a vanilla RNN layer.
func NewRNN(name string, in, h int, rng *tensor.RNG) *RNN {
	return &RNN{newRecurrent(name, in, h, rnnCell, rng)}
}

// rnnCell is h = tanh(zx + zh + b); its only state is h.
var rnnCell = cell{gates: 1, planes: 1, forward: rnnForward, backward: rnnBackward}

func rnnForward(n, H int, zx, zh, bias, _, cur []float32) {
	for b := 0; b < n; b++ {
		for j := 0; j < H; j++ {
			k := b*H + j
			cur[k] = float32(math.Tanh(float64(zx[k] + zh[k] + bias[j])))
		}
	}
}

func rnnBackward(n, H int, g, _, cur []float32, dzx, dzh *tensor.Tensor, b *Param, _, _ []float32) {
	dz := dzx.Data()
	for i, hv := range cur[:n*H] {
		dz[i] = g[i] * (1 - hv*hv) // through tanh
	}
	sumPreact(dzx, dzh, b)
}

// LSTM is a long short-term memory layer over [N, T, In] sequences
// producing [N, T, H], the dominant layer of the paper's Seq2Seq models
// (NMT, Sockeye).
type LSTM struct{ recurrent }

// NewLSTM constructs an LSTM layer with forget-gate bias 1.
func NewLSTM(name string, in, h int, rng *tensor.RNG) *LSTM {
	l := &LSTM{newRecurrent(name, in, h, lstmCell, rng)}
	for i := h; i < 2*h; i++ {
		l.B.Value.Data()[i] = 1
	}
	return l
}

// lstmCell has gate order i, f, g, o in Wx, Wh and B.
var lstmCell = cell{gates: 4, planes: 7, forward: lstmForward, backward: lstmBackward}

// lstmState names the parts of one LSTM timestep's state: h, the four
// activated gates laid out like their pre-activations [N, 4H], the cell
// state c and tanh(c).
func lstmState(s []float32, nh int) (h, act, c, tanhC []float32) {
	return s[:nh], s[nh : 5*nh], s[5*nh : 6*nh], s[6*nh:]
}

func lstmForward(n, H int, zx, zh, bias, prev, cur []float32) {
	_, _, cPrev, _ := lstmState(prev, n*H)
	h, act, c, tanhC := lstmState(cur, n*H)
	for b := 0; b < n; b++ {
		zxr, zhr, ar := zx[b*4*H:(b+1)*4*H], zh[b*4*H:(b+1)*4*H], act[b*4*H:(b+1)*4*H]
		for j := 0; j < H; j++ {
			k := b*H + j
			iv := tensor.Sigmoid32(zxr[j] + zhr[j] + bias[j])
			fv := tensor.Sigmoid32(zxr[H+j] + zhr[H+j] + bias[H+j])
			gv := float32(math.Tanh(float64(zxr[2*H+j] + zhr[2*H+j] + bias[2*H+j])))
			ov := tensor.Sigmoid32(zxr[3*H+j] + zhr[3*H+j] + bias[3*H+j])
			cv := fv*cPrev[k] + iv*gv
			tcv := float32(math.Tanh(float64(cv)))
			ar[j], ar[H+j], ar[2*H+j], ar[3*H+j] = iv, fv, gv, ov
			c[k], tanhC[k], h[k] = cv, tcv, ov*tcv
		}
	}
}

func lstmBackward(n, H int, g, prev, cur []float32, dzx, dzh *tensor.Tensor, b *Param, _, gc []float32) {
	_, _, cPrev, _ := lstmState(prev, n*H)
	_, act, _, tanhC := lstmState(cur, n*H)
	for bi := 0; bi < n; bi++ {
		zr, ar := dzx.Data()[bi*4*H:(bi+1)*4*H], act[bi*4*H:(bi+1)*4*H]
		for j := 0; j < H; j++ {
			k := bi*H + j
			iv, fv, gv, ov, tcv := ar[j], ar[H+j], ar[2*H+j], ar[3*H+j], tanhC[k]
			// h = o * tanh(c)
			do := g[k] * tcv
			dc := g[k]*ov*(1-tcv*tcv) + gc[k]
			di := dc * gv
			df := dc * cPrev[k]
			dg := dc * iv
			gc[k] = dc * fv // flows to the previous cell state
			zr[j] = di * iv * (1 - iv)
			zr[H+j] = df * fv * (1 - fv)
			zr[2*H+j] = dg * (1 - gv*gv)
			zr[3*H+j] = do * ov * (1 - ov)
		}
	}
	sumPreact(dzx, dzh, b)
}
