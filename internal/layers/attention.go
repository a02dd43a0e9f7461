package layers

import (
	"fmt"
	"math"

	"tbd/internal/tensor"
)

// MultiHeadAttention implements self-attention over [N, T, D] inputs —
// the layer the paper highlights as the non-recurrent alternative that
// keeps GPUs busy where LSTMs cannot (Observation 5, Transformer panel).
//
// The implementation is single-tensor QKV projection followed by per-head
// scaled dot-product attention and an output projection.
type MultiHeadAttention struct {
	name   string
	D      int // model dimension
	Heads  int
	Wq, Wk *Param
	Wv, Wo *Param
	// Cached forward state.
	x       *tensor.Tensor
	q, k, v *tensor.Tensor // [N, T, D]
	att     *tensor.Tensor // [N*heads, T, T] softmax weights
	ctx     *tensor.Tensor // [N, T, D] pre-output-projection context
	causal  bool
}

// NewMultiHeadAttention constructs an attention layer; d must be divisible
// by heads.
func NewMultiHeadAttention(name string, d, heads int, causal bool, rng *tensor.RNG) *MultiHeadAttention {
	if d%heads != 0 {
		panic(fmt.Sprintf("layers: %s model dim %d not divisible by %d heads", name, d, heads))
	}
	return &MultiHeadAttention{
		name: name, D: d, Heads: heads, causal: causal,
		Wq: NewParam(name+".Wq", tensor.XavierInit(rng, d, d, d, d)),
		Wk: NewParam(name+".Wk", tensor.XavierInit(rng, d, d, d, d)),
		Wv: NewParam(name+".Wv", tensor.XavierInit(rng, d, d, d, d)),
		Wo: NewParam(name+".Wo", tensor.XavierInit(rng, d, d, d, d)),
	}
}

func (l *MultiHeadAttention) Name() string { return l.name }

// project computes x2 @ W for x flattened to [N*T, D].
func project(x *tensor.Tensor, w *Param) *tensor.Tensor {
	n, T, d := x.Dim(0), x.Dim(1), x.Dim(2)
	return tensor.MatMulParallel(x.Reshape(n*T, d), w.Value).Reshape(n, T, d)
}

// toHeads reorders [N, T, D] into [N*heads, T, Dh].
func toHeads(x *tensor.Tensor, heads int) *tensor.Tensor {
	n, T, d := x.Dim(0), x.Dim(1), x.Dim(2)
	dh := d / heads
	out := tensor.New(n*heads, T, dh)
	for b := 0; b < n; b++ {
		for t := 0; t < T; t++ {
			row := x.Data()[(b*T+t)*d : (b*T+t+1)*d]
			for h := 0; h < heads; h++ {
				copy(out.Data()[((b*heads+h)*T+t)*dh:((b*heads+h)*T+t+1)*dh], row[h*dh:(h+1)*dh])
			}
		}
	}
	return out
}

// fromHeads inverts toHeads.
func fromHeads(x *tensor.Tensor, n, heads int) *tensor.Tensor {
	T := x.Dim(1)
	dh := x.Dim(2)
	d := heads * dh
	out := tensor.New(n, T, d)
	for b := 0; b < n; b++ {
		for t := 0; t < T; t++ {
			dst := out.Data()[(b*T+t)*d : (b*T+t+1)*d]
			for h := 0; h < heads; h++ {
				copy(dst[h*dh:(h+1)*dh], x.Data()[((b*heads+h)*T+t)*dh:((b*heads+h)*T+t+1)*dh])
			}
		}
	}
	return out
}

// transposeLast swaps the last two axes of a rank-3 tensor.
func transposeLast(x *tensor.Tensor) *tensor.Tensor {
	b, n, m := x.Dim(0), x.Dim(1), x.Dim(2)
	out := tensor.New(b, m, n)
	for i := 0; i < b; i++ {
		for r := 0; r < n; r++ {
			for c := 0; c < m; c++ {
				out.Data()[i*m*n+c*n+r] = x.Data()[i*n*m+r*m+c]
			}
		}
	}
	return out
}

func (l *MultiHeadAttention) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	if x.Rank() != 3 || x.Dim(2) != l.D {
		panic(fmt.Sprintf("layers: %s expects [N,T,%d], got %v", l.name, l.D, x.Shape()))
	}
	n, T := x.Dim(0), x.Dim(1)
	q := project(x, l.Wq)
	k := project(x, l.Wk)
	v := project(x, l.Wv)
	dh := l.D / l.Heads
	qh := toHeads(q, l.Heads) // [NH, T, dh]
	kh := toHeads(k, l.Heads)
	vh := toHeads(v, l.Heads)
	scores := tensor.BatchMatMul(qh, transposeLast(kh)) // [NH, T, T]
	scores.ScaleInPlace(1 / float32(math.Sqrt(float64(dh))))
	if l.causal {
		neg := float32(-1e9)
		for b := 0; b < scores.Dim(0); b++ {
			for r := 0; r < T; r++ {
				for c := r + 1; c < T; c++ {
					scores.Data()[b*T*T+r*T+c] = neg
				}
			}
		}
	}
	att := tensor.SoftmaxRows(scores.Reshape(scores.Dim(0)*T, T)).Reshape(n*l.Heads, T, T)
	scores.Release()                    // SoftmaxRows copied; the raw scores are dead
	ctxH := tensor.BatchMatMul(att, vh) // [NH, T, dh]
	ctx := fromHeads(ctxH, n, l.Heads)  // [N, T, D]
	ctxH.Release()                      // fromHeads copied
	out := project(ctx, l.Wo)
	if train {
		l.x, l.q, l.k, l.v, l.att, l.ctx = x, q, k, v, att, ctx
	} else {
		l.x, l.q, l.k, l.v, l.att, l.ctx = nil, nil, nil, nil, nil, nil
	}
	return out
}

func (l *MultiHeadAttention) Backward(gy *tensor.Tensor) *tensor.Tensor {
	requireForward(l.name, l.x)
	n, T, d := l.x.Dim(0), l.x.Dim(1), l.D
	heads, dh := l.Heads, l.D/l.Heads

	// Output projection.
	g2 := gy.Reshape(n*T, d)
	ctx2 := l.ctx.Reshape(n*T, d)
	tensor.AddInPlace(l.Wo.Grad, tensor.MatMulTransA(ctx2, g2))
	gctx := tensor.MatMulTransB(g2, l.Wo.Value).Reshape(n, T, d)

	gctxH := toHeads(gctx, heads) // [NH, T, dh]
	qh := toHeads(l.q, heads)
	kh := toHeads(l.k, heads)
	vh := toHeads(l.v, heads)

	// ctxH = att @ vh.
	gatt := tensor.BatchMatMul(gctxH, transposeLast(vh))   // [NH, T, T]
	gvh := tensor.BatchMatMul(transposeLast(l.att), gctxH) // [NH, T, dh]

	// Softmax backward per row: ds = att * (gatt - sum(gatt*att)).
	gscores := tensor.New(n*heads, T, T)
	for b := 0; b < n*heads; b++ {
		for r := 0; r < T; r++ {
			arow := l.att.Data()[b*T*T+r*T : b*T*T+(r+1)*T]
			grow := gatt.Data()[b*T*T+r*T : b*T*T+(r+1)*T]
			var dot float64
			for i := range arow {
				dot += float64(arow[i]) * float64(grow[i])
			}
			dst := gscores.Data()[b*T*T+r*T : b*T*T+(r+1)*T]
			for i := range arow {
				dst[i] = arow[i] * (grow[i] - float32(dot))
			}
		}
	}
	gscores.ScaleInPlace(1 / float32(math.Sqrt(float64(dh))))
	gatt.Release() // consumed by the softmax-backward loop above

	// scores = qh @ khᵀ.
	gqh := tensor.BatchMatMul(gscores, kh)                // [NH, T, dh]
	gkh := tensor.BatchMatMul(transposeLast(gscores), qh) // [NH, T, dh]

	gq := fromHeads(gqh, n, heads).Reshape(n*T, d)
	gk := fromHeads(gkh, n, heads).Reshape(n*T, d)
	gv := fromHeads(gvh, n, heads).Reshape(n*T, d)
	gqh.Release() // fromHeads copied all three
	gkh.Release()
	gvh.Release()
	x2 := l.x.Reshape(n*T, d)
	tensor.AddInPlace(l.Wq.Grad, tensor.MatMulTransA(x2, gq))
	tensor.AddInPlace(l.Wk.Grad, tensor.MatMulTransA(x2, gk))
	tensor.AddInPlace(l.Wv.Grad, tensor.MatMulTransA(x2, gv))
	gx := tensor.MatMulTransB(gq, l.Wq.Value)
	tensor.AddInPlace(gx, tensor.MatMulTransB(gk, l.Wk.Value))
	tensor.AddInPlace(gx, tensor.MatMulTransB(gv, l.Wv.Value))
	return gx.Reshape(n, T, d)
}

func (l *MultiHeadAttention) Params() []*Param {
	return []*Param{l.Wq, l.Wk, l.Wv, l.Wo}
}

func (l *MultiHeadAttention) StashBytes() int64 {
	return bytesOf(l.x, l.q, l.k, l.v, l.att, l.ctx)
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
