package layers

import (
	"math"
	"testing"

	"tbd/internal/tensor"
)

// gradCheck validates a layer's analytic gradients (input and parameter)
// against central finite differences of the scalar loss sum(f(x) * coef).
func gradCheck(t *testing.T, l Layer, x *tensor.Tensor, tol float64) {
	t.Helper()
	rng := tensor.NewRNG(99)
	y := l.Forward(x, true)
	coef := tensor.RandNormal(rng, 0, 1, y.Shape()...)
	loss := func() float64 {
		out := l.Forward(x, true)
		var s float64
		for i, v := range out.Data() {
			s += float64(v) * float64(coef.Data()[i])
		}
		return s
	}
	// Analytic pass.
	for _, p := range l.Params() {
		p.ZeroGrad()
	}
	_ = l.Forward(x, true)
	gx := l.Backward(coef)

	const eps = 1e-2
	checkAgainst := func(name string, data []float32, analytic []float32, indices []int) {
		for _, i := range indices {
			orig := data[i]
			data[i] = orig + eps
			up := loss()
			data[i] = orig - eps
			down := loss()
			data[i] = orig
			num := (up - down) / (2 * eps)
			got := float64(analytic[i])
			if math.Abs(num-got) > tol*(1+math.Abs(num)) {
				t.Fatalf("%s grad[%d]: finite-diff %.5f vs analytic %.5f", name, i, num, got)
			}
		}
	}
	idx := sampleIndices(x.Numel())
	checkAgainst(l.Name()+".input", x.Data(), gx.Data(), idx)
	for _, p := range l.Params() {
		checkAgainst(p.Name, p.Value.Data(), p.Grad.Data(), sampleIndices(p.Value.Numel()))
	}
}

func sampleIndices(n int) []int {
	if n <= 6 {
		out := make([]int, n)
		for i := range out {
			out[i] = i
		}
		return out
	}
	return []int{0, n / 5, 2 * n / 5, n / 2, 3 * n / 4, n - 1}
}

func TestDenseGradients(t *testing.T) {
	rng := tensor.NewRNG(1)
	l := NewDense("fc", 5, 3, rng)
	x := tensor.RandNormal(rng, 0, 1, 4, 5)
	gradCheck(t, l, x, 2e-2)
}

func TestDenseNoBiasHasSingleParam(t *testing.T) {
	rng := tensor.NewRNG(1)
	l := NewDenseNoBias("fc", 4, 4, rng)
	if len(l.Params()) != 1 {
		t.Fatalf("want 1 param, got %d", len(l.Params()))
	}
	gradCheck(t, l, tensor.RandNormal(rng, 0, 1, 3, 4), 2e-2)
}

func TestDenseFlattensHigherRank(t *testing.T) {
	rng := tensor.NewRNG(2)
	l := NewDense("fc", 6, 2, rng)
	x := tensor.RandNormal(rng, 0, 1, 2, 3, 6) // [N, T, F] sequence input
	y := l.Forward(x, true)
	// Leading dimensions are preserved: [2, 3, 6] -> [2, 3, 2].
	if y.Rank() != 3 || y.Dim(0) != 2 || y.Dim(1) != 3 || y.Dim(2) != 2 {
		t.Fatalf("shape %v", y.Shape())
	}
	gx := l.Backward(tensor.Ones(2, 3, 2))
	if gx.Rank() != 3 || gx.Dim(1) != 3 {
		t.Fatalf("input grad shape %v", gx.Shape())
	}
}

func TestConv2DGradients(t *testing.T) {
	rng := tensor.NewRNG(3)
	l := NewConv2D("conv", 2, 3, 3, 1, 1, rng)
	x := tensor.RandNormal(rng, 0, 1, 2, 2, 5, 5)
	gradCheck(t, l, x, 3e-2)
}

func TestConv2DStridedShapes(t *testing.T) {
	rng := tensor.NewRNG(4)
	l := NewConv2DNoBias("conv", 3, 8, 3, 2, 1, rng)
	x := tensor.RandNormal(rng, 0, 1, 1, 3, 8, 8)
	y := l.Forward(x, true)
	if y.Dim(1) != 8 || y.Dim(2) != 4 || y.Dim(3) != 4 {
		t.Fatalf("strided conv shape %v", y.Shape())
	}
	if l.WorkspaceBytes(1, 8, 8) != int64(1*4*4)*int64(3*3*3)*4 {
		t.Fatalf("workspace bytes %d", l.WorkspaceBytes(1, 8, 8))
	}
}

func TestReLUGradients(t *testing.T) {
	rng := tensor.NewRNG(5)
	gradCheck(t, NewReLU("relu"), tensor.RandNormal(rng, 0, 1, 3, 7), 2e-2)
}

func TestLeakyReLUGradients(t *testing.T) {
	rng := tensor.NewRNG(6)
	gradCheck(t, NewLeakyReLU("lrelu", 0.2), tensor.RandNormal(rng, 0, 1, 3, 7), 2e-2)
}

func TestSigmoidGradients(t *testing.T) {
	rng := tensor.NewRNG(7)
	gradCheck(t, NewSigmoid("sig"), tensor.RandNormal(rng, 0, 1, 3, 5), 2e-2)
}

func TestTanhGradients(t *testing.T) {
	rng := tensor.NewRNG(8)
	gradCheck(t, NewTanh("tanh"), tensor.RandNormal(rng, 0, 1, 3, 5), 2e-2)
}

func TestBatchNormGradients(t *testing.T) {
	rng := tensor.NewRNG(10)
	l := NewBatchNorm2D("bn", 3)
	x := tensor.RandNormal(rng, 2, 3, 4, 3, 3, 3)
	gradCheck(t, l, x, 5e-2)
}

func TestBatchNormNormalizes(t *testing.T) {
	rng := tensor.NewRNG(11)
	l := NewBatchNorm2D("bn", 2)
	x := tensor.RandNormal(rng, 5, 4, 8, 2, 6, 6)
	y := l.Forward(x, true)
	// With gamma=1 beta=0 the output per channel is ~N(0,1).
	n, c, plane := 8, 2, 36
	for ch := 0; ch < c; ch++ {
		var sum, sq float64
		for b := 0; b < n; b++ {
			for i := 0; i < plane; i++ {
				v := float64(y.Data()[(b*c+ch)*plane+i])
				sum += v
				sq += v * v
			}
		}
		m := float64(n * plane)
		mean := sum / m
		variance := sq/m - mean*mean
		if math.Abs(mean) > 1e-3 || math.Abs(variance-1) > 1e-2 {
			t.Fatalf("channel %d mean %.4f var %.4f", ch, mean, variance)
		}
	}
}

func TestBatchNormInferenceUsesRunningStats(t *testing.T) {
	rng := tensor.NewRNG(12)
	l := NewBatchNorm2D("bn", 1)
	for i := 0; i < 50; i++ {
		x := tensor.RandNormal(rng, 3, 2, 8, 1, 4, 4)
		l.Forward(x, true)
	}
	x := tensor.Full(3, 2, 1, 4, 4) // constant input at the running mean
	y := l.Forward(x, false)
	for _, v := range y.Data() {
		if math.Abs(float64(v)) > 0.25 {
			t.Fatalf("inference BN output %g, want ~0", v)
		}
	}
}

func TestLayerNormGradients(t *testing.T) {
	rng := tensor.NewRNG(13)
	l := NewLayerNorm("ln", 6)
	x := tensor.RandNormal(rng, 1, 2, 4, 6)
	gradCheck(t, l, x, 5e-2)
}

func TestEmbeddingForwardBackward(t *testing.T) {
	rng := tensor.NewRNG(14)
	l := NewEmbedding("emb", 10, 4, rng)
	x := tensor.FromSlice([]float32{1, 3, 3, 0}, 2, 2)
	y := l.Forward(x, true)
	if y.Dim(2) != 4 {
		t.Fatalf("embedding shape %v", y.Shape())
	}
	// Token 3 appears twice; its gradient row should be the sum.
	gy := tensor.Ones(2, 2, 4)
	l.Backward(gy)
	for j := 0; j < 4; j++ {
		if l.W.Grad.At(3, j) != 2 {
			t.Fatalf("token-3 grad %g, want 2", l.W.Grad.At(3, j))
		}
		if l.W.Grad.At(1, j) != 1 {
			t.Fatalf("token-1 grad %g, want 1", l.W.Grad.At(1, j))
		}
		if l.W.Grad.At(5, j) != 0 {
			t.Fatal("untouched token must have zero grad")
		}
	}
}

func TestRNNGradients(t *testing.T) {
	rng := tensor.NewRNG(15)
	l := NewRNN("rnn", 3, 4, rng)
	x := tensor.RandNormal(rng, 0, 1, 2, 3, 3)
	gradCheck(t, l, x, 5e-2)
}

func TestLSTMGradients(t *testing.T) {
	rng := tensor.NewRNG(16)
	l := NewLSTM("lstm", 3, 4, rng)
	x := tensor.RandNormal(rng, 0, 1, 2, 3, 3)
	gradCheck(t, l, x, 5e-2)
}

func TestMultiHeadAttentionGradients(t *testing.T) {
	rng := tensor.NewRNG(19)
	l := NewMultiHeadAttention("mha", 8, 2, false, rng)
	x := tensor.RandNormal(rng, 0, 0.5, 2, 3, 8)
	gradCheck(t, l, x, 6e-2)
}

func TestCausalMaskBlocksFuture(t *testing.T) {
	rng := tensor.NewRNG(20)
	l := NewMultiHeadAttention("mha", 4, 1, true, rng)
	x := tensor.RandNormal(rng, 0, 1, 1, 5, 4)
	y1 := l.Forward(x, false).Clone()
	// Perturb the last timestep; earlier outputs must not change.
	x2 := x.Clone()
	for j := 0; j < 4; j++ {
		x2.Set(x2.At(0, 4, j)+10, 0, 4, j)
	}
	y2 := l.Forward(x2, false)
	for t2 := 0; t2 < 4; t2++ {
		for j := 0; j < 4; j++ {
			if math.Abs(float64(y1.At(0, t2, j)-y2.At(0, t2, j))) > 1e-5 {
				t.Fatalf("causal mask leaked future into t=%d", t2)
			}
		}
	}
}

func TestAttentionRowsSumToOne(t *testing.T) {
	rng := tensor.NewRNG(21)
	l := NewMultiHeadAttention("mha", 8, 2, false, rng)
	x := tensor.RandNormal(rng, 0, 1, 1, 4, 8)
	l.Forward(x, true)
	att := l.att
	rows := att.Dim(0) * att.Dim(1)
	T := att.Dim(2)
	for r := 0; r < rows; r++ {
		var s float64
		for c := 0; c < T; c++ {
			s += float64(att.Data()[r*T+c])
		}
		if math.Abs(s-1) > 1e-4 {
			t.Fatalf("attention row sums to %g", s)
		}
	}
}

func TestSequentialComposition(t *testing.T) {
	rng := tensor.NewRNG(22)
	s := NewSequential("mlp",
		NewDense("fc1", 4, 8, rng),
		NewReLU("relu"),
		NewDense("fc2", 8, 2, rng),
	)
	x := tensor.RandNormal(rng, 0, 1, 3, 4)
	gradCheck(t, s, x, 3e-2)
	if len(s.Params()) != 4 {
		t.Fatalf("sequential params = %d, want 4", len(s.Params()))
	}
}

func TestResidualIdentitySkip(t *testing.T) {
	rng := tensor.NewRNG(23)
	body := NewSequential("body", NewDense("fc", 4, 4, rng), NewTanh("t"))
	r := NewResidual("res", body, nil)
	x := tensor.RandNormal(rng, 0, 1, 2, 4)
	gradCheck(t, r, x, 3e-2)
}

func TestResidualProjectionSkip(t *testing.T) {
	rng := tensor.NewRNG(24)
	body := NewDense("fc", 4, 6, rng)
	proj := NewDenseNoBias("proj", 4, 6, rng)
	r := NewResidual("res", body, proj)
	x := tensor.RandNormal(rng, 0, 1, 2, 4)
	gradCheck(t, r, x, 3e-2)
}

func TestPoolLayers(t *testing.T) {
	rng := tensor.NewRNG(25)
	x := tensor.RandNormal(rng, 0, 1, 2, 3, 6, 6)
	mp := NewMaxPool2D("mp", 2, 2)
	gradCheck(t, mp, x, 3e-2)
	ap := NewAvgPool2D("ap", 2, 2)
	gradCheck(t, ap, x, 3e-2)
	gp := NewGlobalAvgPool2D("gap")
	gradCheck(t, gp, x, 3e-2)
}

func TestFlattenRoundTrip(t *testing.T) {
	rng := tensor.NewRNG(26)
	f := NewFlatten("flat")
	x := tensor.RandNormal(rng, 0, 1, 2, 3, 4, 4)
	y := f.Forward(x, true)
	if y.Rank() != 2 || y.Dim(1) != 48 {
		t.Fatalf("flatten shape %v", y.Shape())
	}
	g := f.Backward(tensor.Ones(2, 48))
	if g.Rank() != 4 {
		t.Fatalf("flatten backward shape %v", g.Shape())
	}
}

func TestStashBytesAccounting(t *testing.T) {
	rng := tensor.NewRNG(27)
	l := NewDense("fc", 10, 5, rng)
	if l.StashBytes() != 0 {
		t.Fatal("stash must be empty before forward")
	}
	x := tensor.RandNormal(rng, 0, 1, 8, 10)
	l.Forward(x, true)
	if l.StashBytes() != int64(8*10*4) {
		t.Fatalf("dense stash %d bytes, want %d", l.StashBytes(), 8*10*4)
	}
	// Inference must not stash.
	l.Forward(x, false)
	if l.StashBytes() != 0 {
		t.Fatal("inference forward must not stash feature maps")
	}
	// A convolution stashes x alone, 3x3 or pointwise: the backward pass
	// lowers x again, one image at a time.
	img := tensor.RandNormal(rng, 0, 1, 4, 3, 16, 16)
	for _, c := range []*Conv2D{
		NewConv2DNoBias("conv3x3", 3, 8, 3, 1, 1, rng),
		NewConv2DNoBias("conv1x1", 3, 8, 1, 1, 0, rng),
		NewConv2DAct("conv-act", 3, 8, 3, 2, 1, tensor.ActReLU, rng),
	} {
		c.Forward(img, true)
		if got, want := c.StashBytes(), int64(4*img.Numel()); got != want {
			t.Errorf("%s stash %d bytes, want x's %d", c.Name(), got, want)
		}
	}
}

func TestParamCount(t *testing.T) {
	rng := tensor.NewRNG(28)
	l := NewDense("fc", 10, 5, rng)
	if n := ParamCount(l.Params()); n != 55 {
		t.Fatalf("ParamCount = %d, want 55", n)
	}
}

func TestPositionalEncodingDeterministicAndPassThroughGrad(t *testing.T) {
	pe := NewPositionalEncoding("pe", 6)
	x := tensor.New(1, 3, 6)
	y1 := pe.Forward(x, true)
	y2 := pe.Forward(x, true)
	if !tensor.Equal(y1, y2, 0) {
		t.Fatal("positional encoding must be deterministic")
	}
	g := tensor.Ones(1, 3, 6)
	if !tensor.Equal(pe.Backward(g), g, 0) {
		t.Fatal("positional encoding backward must be identity")
	}
}

// TestGradCheckWithParallelism reruns the core gradient checks with the
// worker pool engaged: analytic backward must agree with finite
// differences regardless of worker count, proving the parallel GEMM and
// conv paths compute the same gradients as serial code.
func TestGradCheckWithParallelism(t *testing.T) {
	defer tensor.SetParallelism(1)
	tensor.SetParallelism(3)
	rng := tensor.NewRNG(31)
	gradCheck(t, NewDense("pfc", 5, 3, rng), tensor.RandNormal(rng, 0, 1, 4, 5), 2e-2)
	gradCheck(t, NewConv2D("pconv", 2, 3, 3, 1, 1, rng), tensor.RandNormal(rng, 0, 1, 2, 2, 5, 5), 3e-2)
	gradCheck(t, NewBatchNorm2D("pbn", 3), tensor.RandNormal(rng, 0, 1, 2, 3, 4, 4), 3e-2)
}

// WorkspaceBytes reports the im2col scratch buffer size for a given input,
// which the memory profiler attributes to the "workspace" category — the
// analogue of cuDNN convolution workspace.
func (c *Conv2D) WorkspaceBytes(n, h, w int) int64 {
	oh := tensor.ConvOut(h, c.KH, c.Stride, c.Pad)
	ow := tensor.ConvOut(w, c.KW, c.Stride, c.Pad)
	return int64(n*oh*ow) * int64(c.InC*c.KH*c.KW) * 4
}
