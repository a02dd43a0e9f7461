package layers

import (
	"fmt"
	"math"

	"tbd/internal/tensor"
)

// attention is the one scaled-dot-product core under MultiHeadAttention
// (the memory is the input itself) and CrossAttention (the memory is set
// by the caller): project queries from x and keys and values from the
// memory, split into heads, scale the scores, mask, softmax, mix the
// values and project the result.
type attention struct {
	name           string
	D              int // model dimension
	Heads          int
	Wq, Wk, Wv, Wo *Param
	causal         bool
	attnStash
	out, gx *tensor.Tensor // previously returned buffers, recycled next call
}

// attnStash is what a train-mode forward keeps for backward.
type attnStash struct {
	x, mem     *tensor.Tensor // inputs [N, Tq, D] and [N, Tk, D]; their producers own them
	qh, kh, vh *tensor.Tensor // projections split into heads, [N·Heads, T, D/Heads]
	att        *tensor.Tensor // [N·Heads, Tq, Tk] softmax weights
	ctx        *tensor.Tensor // [N·Tq, D] context before the output projection
}

func newAttention(name string, d, heads int, causal bool, rng *tensor.RNG) attention {
	if d%heads != 0 {
		panic(fmt.Sprintf("layers: %s model dim %d not divisible by %d heads", name, d, heads))
	}
	return attention{
		name: name, D: d, Heads: heads, causal: causal,
		Wq: NewParam(name+".Wq", tensor.XavierInit(rng, d, d, d, d)),
		Wk: NewParam(name+".Wk", tensor.XavierInit(rng, d, d, d, d)),
		Wv: NewParam(name+".Wv", tensor.XavierInit(rng, d, d, d, d)),
		Wo: NewParam(name+".Wo", tensor.XavierInit(rng, d, d, d, d)),
	}
}

func (l *attention) Name() string { return l.name }

func (l *attention) Params() []*Param { return []*Param{l.Wq, l.Wk, l.Wv, l.Wo} }

// StashBytes counts the stashed input once when it is also the memory.
func (l *attention) StashBytes() int64 {
	n := bytesOf(l.x, l.qh, l.kh, l.vh, l.att, l.ctx)
	if l.mem != l.x {
		n += bytesOf(l.mem)
	}
	return n
}

// swapAxes copies x, read as [n, a, b, w], into a new tensor of the given
// shape read as [n, b, a, w]: with a = T and b = heads it splits [N·T, D]
// into heads [N·heads, T, D/heads], the other way round it merges them.
func swapAxes(x *tensor.Tensor, n, a, b int, shape ...int) *tensor.Tensor {
	w := x.Numel() / (n * a * b)
	out := tensor.AcquireDirty(shape...)
	for i := 0; i < n; i++ {
		for p := 0; p < a; p++ {
			for q := 0; q < b; q++ {
				s, d := ((i*a+p)*b+q)*w, ((i*b+q)*a+p)*w
				copy(out.Data()[d:d+w], x.Data()[s:s+w])
			}
		}
	}
	return out
}

// transposeLast swaps the last two axes of a rank-3 tensor.
func transposeLast(x *tensor.Tensor) *tensor.Tensor {
	b, n, m := x.Dim(0), x.Dim(1), x.Dim(2)
	out := tensor.AcquireDirty(b, m, n)
	for i := 0; i < b; i++ {
		for r := 0; r < n; r++ {
			for c := 0; c < m; c++ {
				out.Data()[i*m*n+c*n+r] = x.Data()[i*n*m+r*m+c]
			}
		}
	}
	return out
}

// heads projects x [N, T, D] through w and splits the result into heads.
func (l *attention) heads(x *tensor.Tensor, w *Param) *tensor.Tensor {
	n, T, dh := x.Dim(0), x.Dim(1), l.D/l.Heads
	p := tensor.MatMul(x.Reshape(n*T, l.D), w.Value)
	xh := swapAxes(p, n, T, l.Heads, n*l.Heads, T, dh)
	p.Release()
	return xh
}

// merge undoes the split into heads: [N·Heads, T, D/Heads] to [N·T, D].
func (l *attention) merge(xh *tensor.Tensor) *tensor.Tensor {
	n, T := xh.Dim(0)/l.Heads, xh.Dim(1)
	return swapAxes(xh, n, l.Heads, T, n*T, l.D)
}

// forward attends from x [N, Tq, D] over mem [N, Tk, D].
func (l *attention) forward(x, mem *tensor.Tensor, train bool) *tensor.Tensor {
	if x.Rank() != 3 || x.Dim(2) != l.D {
		panic(fmt.Sprintf("layers: %s expects [N,T,%d], got %v", l.name, l.D, x.Shape()))
	}
	tq, tk := x.Dim(1), mem.Dim(1)
	release(l.qh, l.kh, l.vh, l.att, l.ctx)
	l.attnStash = attnStash{}
	qh, kh, vh := l.heads(x, l.Wq), l.heads(mem, l.Wk), l.heads(mem, l.Wv)
	khT := transposeLast(kh)
	scores := tensor.BatchMatMul(qh, khT) // [N·Heads, Tq, Tk]
	scores.ScaleInPlace(1 / float32(math.Sqrt(float64(l.D/l.Heads))))
	if l.causal {
		for r := 0; r < scores.Dim(0)*tq; r++ {
			for c := r%tq + 1; c < tk; c++ {
				scores.Data()[r*tk+c] = -1e9
			}
		}
	}
	att := tensor.SoftmaxRows(scores)
	ctxH := tensor.BatchMatMul(att, vh) // [N·Heads, Tq, D/Heads]
	ctx := l.merge(ctxH)
	l.out.Release()
	l.out = tensor.MatMul(ctx, l.Wo.Value)
	release(khT, scores, ctxH)
	if train {
		l.attnStash = attnStash{x: x, mem: mem, qh: qh, kh: kh, vh: vh, att: att, ctx: ctx}
	} else {
		release(qh, kh, vh, att, ctx)
	}
	return l.out.Reshape(x.Shape()...)
}

// backward takes gy = dL/dout back through the output projection, the
// value mix, the softmax, the scores and the three input projections,
// writes all four weight gradients, and returns what reaches the inputs:
// gxq [N·Tq, D] for x through the queries, gmk and gmv [N·Tk, D] for the
// memory through keys and values. The caller sums and releases them.
func (l *attention) backward(gy *tensor.Tensor) (gxq, gmk, gmv *tensor.Tensor) {
	requireForward(l.name, l.x)
	n, tq, tk := l.x.Dim(0), l.x.Dim(1), l.mem.Dim(1)
	g2 := gy.Reshape(n*tq, l.D)
	l.Wo.AddGradTransA(l.ctx, g2)
	gctx := tensor.MatMulTransB(g2, l.Wo.Value)
	gctxH := swapAxes(gctx, n, tq, l.Heads, l.qh.Shape()...)

	// ctxH = att @ vh.
	vhT, attT := transposeLast(l.vh), transposeLast(l.att)
	gs := tensor.BatchMatMul(gctxH, vhT)   // dL/datt [N·Heads, Tq, Tk]
	gvh := tensor.BatchMatMul(attT, gctxH) // [N·Heads, Tk, D/Heads]

	// Softmax backward per row, in place: ds = att * (datt - sum(datt*att)).
	for r := 0; r < gs.Numel()/tk; r++ {
		arow, grow := l.att.Data()[r*tk:(r+1)*tk], gs.Data()[r*tk:(r+1)*tk]
		var dot float64
		for i := range arow {
			dot += float64(arow[i]) * float64(grow[i])
		}
		for i := range arow {
			grow[i] = arow[i] * (grow[i] - float32(dot))
		}
	}
	gs.ScaleInPlace(1 / float32(math.Sqrt(float64(l.D/l.Heads))))

	// scores = qh @ khᵀ.
	gsT := transposeLast(gs)
	gqh := tensor.BatchMatMul(gs, l.kh)  // [N·Heads, Tq, D/Heads]
	gkh := tensor.BatchMatMul(gsT, l.qh) // [N·Heads, Tk, D/Heads]

	gq, gk, gv := l.merge(gqh), l.merge(gkh), l.merge(gvh)
	x2, mem2 := l.x.Reshape(n*tq, l.D), l.mem.Reshape(n*tk, l.D)
	l.Wq.AddGradTransA(x2, gq)
	l.Wk.AddGradTransA(mem2, gk)
	l.Wv.AddGradTransA(mem2, gv)
	gxq, gmk, gmv = tensor.MatMulTransB(gq, l.Wq.Value), tensor.MatMulTransB(gk, l.Wk.Value), tensor.MatMulTransB(gv, l.Wv.Value)
	release(gctx, gctxH, vhT, attT, gs, gvh, gsT, gqh, gkh, gq, gk, gv)
	return gxq, gmk, gmv
}

// MultiHeadAttention implements self-attention over [N, T, D] inputs —
// the layer the paper highlights as the non-recurrent alternative that
// keeps GPUs busy where LSTMs cannot (Observation 5, Transformer panel).
type MultiHeadAttention struct{ attention }

// NewMultiHeadAttention constructs an attention layer; d must be divisible
// by heads.
func NewMultiHeadAttention(name string, d, heads int, causal bool, rng *tensor.RNG) *MultiHeadAttention {
	return &MultiHeadAttention{newAttention(name, d, heads, causal, rng)}
}

func (l *MultiHeadAttention) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	return l.forward(x, x, train)
}

func (l *MultiHeadAttention) Backward(gy *tensor.Tensor) *tensor.Tensor {
	l.gx.Release()
	gx, gmk, gmv := l.backward(gy)
	tensor.AddInPlace(gx, gmk)
	tensor.AddInPlace(gx, gmv)
	release(gmk, gmv)
	l.gx = gx
	return gx.Reshape(l.x.Shape()...)
}

// CrossAttention attends from a query sequence (decoder states) over a
// separately supplied memory sequence (encoder outputs) — the
// encoder-decoder attention of NMT and the Transformer decoder. Set the
// memory with SetMemory before Forward; after Backward, MemoryGrad
// returns the gradient flowing back into the encoder.
type CrossAttention struct {
	attention
	memory  *tensor.Tensor // [N, Te, D], what the next Forward attends over
	gmem    *tensor.Tensor // previously returned memory gradient [N·Te, D], recycled next call
	memGrad *tensor.Tensor // gmem as [N, Te, D]
}

// NewCrossAttention constructs the layer; d must divide by heads.
func NewCrossAttention(name string, d, heads int, rng *tensor.RNG) *CrossAttention {
	return &CrossAttention{attention: newAttention(name, d, heads, false, rng)}
}

// SetMemory installs the encoder outputs the next Forward attends over.
func (l *CrossAttention) SetMemory(mem *tensor.Tensor) {
	if mem.Rank() != 3 || mem.Dim(2) != l.D {
		panic(fmt.Sprintf("layers: %s memory must be [N,Te,%d], got %v", l.name, l.D, mem.Shape()))
	}
	l.memory = mem
}

// MemoryGrad returns the gradient w.r.t. the memory from the most recent
// Backward.
func (l *CrossAttention) MemoryGrad() *tensor.Tensor { return l.memGrad }

func (l *CrossAttention) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	if l.memory == nil {
		panic(fmt.Sprintf("layers: %s.Forward before SetMemory", l.name))
	}
	if x.Dim(0) != l.memory.Dim(0) {
		panic(fmt.Sprintf("layers: %s batch mismatch: queries %d vs memory %d", l.name, x.Dim(0), l.memory.Dim(0)))
	}
	return l.forward(x, l.memory, train)
}

func (l *CrossAttention) Backward(gy *tensor.Tensor) *tensor.Tensor {
	l.gx.Release()
	l.gmem.Release()
	gx, gmem, gmv := l.backward(gy)
	tensor.AddInPlace(gmem, gmv)
	gmv.Release()
	l.gx, l.gmem, l.memGrad = gx, gmem, gmem.Reshape(l.mem.Shape()...)
	return gx.Reshape(l.x.Shape()...)
}

// PositionalEncoding adds fixed sinusoidal position signals to [N, T, D]
// inputs (Vaswani et al.).
type PositionalEncoding struct {
	name string
	D    int
}

// NewPositionalEncoding constructs the encoding layer for model dim d.
func NewPositionalEncoding(name string, d int) *PositionalEncoding {
	return &PositionalEncoding{name: name, D: d}
}

func (l *PositionalEncoding) Name() string { return l.name }

func (l *PositionalEncoding) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	n, T, d := x.Dim(0), x.Dim(1), x.Dim(2)
	out := x.Clone()
	for t := 0; t < T; t++ {
		for i := 0; i < d; i++ {
			freq := math.Pow(10000, -float64(2*(i/2))/float64(d))
			var p float64
			if i%2 == 0 {
				p = math.Sin(float64(t) * freq)
			} else {
				p = math.Cos(float64(t) * freq)
			}
			for b := 0; b < n; b++ {
				out.Data()[(b*T+t)*d+i] += float32(p)
			}
		}
	}
	return out
}

func (l *PositionalEncoding) Backward(gy *tensor.Tensor) *tensor.Tensor { return gy }
func (l *PositionalEncoding) Params() []*Param                          { return nil }
func (l *PositionalEncoding) StashBytes() int64                         { return 0 }
