package layers

import (
	"math"
	"testing"

	"tbd/internal/tensor"
)

func TestBidirectionalShapes(t *testing.T) {
	rng := tensor.NewRNG(1)
	l := NewBiLSTM("bi", 3, 5, rng)
	x := tensor.RandNormal(rng, 0, 1, 2, 4, 3)
	y := l.Forward(x, true)
	if y.Dim(0) != 2 || y.Dim(1) != 4 || y.Dim(2) != 10 {
		t.Fatalf("bidirectional output %v, want [2 4 10]", y.Shape())
	}
	if len(l.Params()) != 6 {
		t.Fatalf("params = %d, want 6 (two LSTMs)", len(l.Params()))
	}
}

func TestBidirectionalGradients(t *testing.T) {
	rng := tensor.NewRNG(2)
	l := NewBiRNN("bi", 3, 4, rng)
	x := tensor.RandNormal(rng, 0, 1, 2, 3, 3)
	gradCheck(t, l, x, 5e-2)
}

func TestBiLSTMGradients(t *testing.T) {
	rng := tensor.NewRNG(3)
	l := NewBiLSTM("bi", 2, 3, rng)
	x := tensor.RandNormal(rng, 0, 1, 2, 3, 2)
	gradCheck(t, l, x, 6e-2)
}

func TestBidirectionalSeesTheFuture(t *testing.T) {
	// Unlike a forward-only RNN, the first timestep's output must depend
	// on the last timestep's input through the backward direction.
	rng := tensor.NewRNG(4)
	l := NewBiRNN("bi", 2, 3, rng)
	x := tensor.RandNormal(rng, 0, 1, 1, 5, 2)
	y1 := l.Forward(x, false).Clone()
	x2 := x.Clone()
	x2.Set(x2.At(0, 4, 0)+5, 0, 4, 0)
	y2 := l.Forward(x2, false)
	var diff float64
	for j := 0; j < 6; j++ {
		diff += math.Abs(float64(y1.At(0, 0, j) - y2.At(0, 0, j)))
	}
	if diff < 1e-4 {
		t.Fatal("backward direction did not propagate future input to t=0")
	}
	// And the forward half (first 3 features) of t=0 must be unchanged.
	for j := 0; j < 3; j++ {
		if y1.At(0, 0, j) != y2.At(0, 0, j) {
			t.Fatal("forward direction leaked future input")
		}
	}
}

func TestConcatChannelsForward(t *testing.T) {
	rng := tensor.NewRNG(6)
	b1 := NewConv2DNoBias("b1", 2, 3, 1, 1, 0, rng)
	b2 := NewConv2DNoBias("b2", 2, 5, 3, 1, 1, rng)
	cc := NewConcatChannels("mix", b1, b2)
	x := tensor.RandNormal(rng, 0, 1, 2, 2, 4, 4)
	y := cc.Forward(x, true)
	if y.Dim(1) != 8 {
		t.Fatalf("concat channels %d, want 8", y.Dim(1))
	}
	// First 3 channels equal branch-1's standalone output.
	y1 := b1.Forward(x, false)
	for b := 0; b < 2; b++ {
		for c := 0; c < 3; c++ {
			for i := 0; i < 16; i++ {
				if y.Data()[(b*8+c)*16+i] != y1.Data()[(b*3+c)*16+i] {
					t.Fatal("branch output misplaced in concat")
				}
			}
		}
	}
}

func TestConcatChannelsGradients(t *testing.T) {
	rng := tensor.NewRNG(7)
	cc := NewConcatChannels("mix",
		NewConv2DNoBias("b1", 2, 2, 1, 1, 0, rng),
		NewSequential("b2",
			NewConv2DNoBias("b2c", 2, 3, 3, 1, 1, rng),
			NewReLU("b2r"),
		),
	)
	x := tensor.RandNormal(rng, 0, 1, 1, 2, 4, 4)
	gradCheck(t, cc, x, 4e-2)
}

func TestConcatChannelsValidates(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("empty branch list must panic")
		}
	}()
	NewConcatChannels("mix")
}

func TestInceptionStyleBlockLearns(t *testing.T) {
	// A real multi-branch block trains end-to-end.
	rng := tensor.NewRNG(8)
	block := NewSequential("net",
		NewConcatChannels("mix",
			NewConv2DNoBias("b1", 1, 4, 1, 1, 0, rng),
			NewConv2DNoBias("b3", 1, 4, 3, 1, 1, rng),
		),
		NewReLU("relu"),
		NewGlobalAvgPool2D("gap"),
		NewDense("fc", 8, 3, rng),
	)
	// 3-class template task.
	templates := make([]*tensor.Tensor, 3)
	for i := range templates {
		templates[i] = tensor.RandNormal(rng, 0, 1, 1, 6, 6)
	}
	batch := func(n int) (*tensor.Tensor, []int) {
		x := tensor.New(n, 1, 6, 6)
		labels := make([]int, n)
		for i := 0; i < n; i++ {
			c := rng.Intn(3)
			labels[i] = c
			for j := 0; j < 36; j++ {
				x.Data()[i*36+j] = templates[c].Data()[j] + 0.2*float32(rng.Norm())
			}
		}
		return x, labels
	}
	var acc float64
	for step := 0; step < 300; step++ {
		x, labels := batch(16)
		for _, p := range block.Params() {
			p.ZeroGrad()
		}
		logits := block.Forward(x, true)
		_, grad := tensor.CrossEntropy(logits, labels)
		block.Backward(grad)
		for _, p := range block.Params() {
			for i, g := range p.Grad.Data() {
				p.Value.Data()[i] -= 0.1 * g
			}
		}
		acc = tensor.Accuracy(logits, labels)
	}
	if acc < 0.85 {
		t.Fatalf("inception-style block accuracy %.2f", acc)
	}
}

func TestCrossAttentionGradients(t *testing.T) {
	rng := tensor.NewRNG(40)
	l := NewCrossAttention("cross", 8, 2, rng)
	mem := tensor.RandNormal(rng, 0, 0.5, 2, 4, 8)
	l.SetMemory(mem)
	x := tensor.RandNormal(rng, 0, 0.5, 2, 3, 8)
	// gradCheck re-runs Forward; memory stays installed.
	gradCheck(t, l, x, 6e-2)
}

func TestCrossAttentionMemoryGradient(t *testing.T) {
	rng := tensor.NewRNG(41)
	l := NewCrossAttention("cross", 4, 1, rng)
	mem := tensor.RandNormal(rng, 0, 0.5, 1, 3, 4)
	x := tensor.RandNormal(rng, 0, 0.5, 1, 2, 4)
	coef := tensor.RandNormal(rng, 0, 1, 1, 2, 4)
	loss := func() float64 {
		l.SetMemory(mem)
		out := l.Forward(x, true)
		var s float64
		for i, v := range out.Data() {
			s += float64(v) * float64(coef.Data()[i])
		}
		return s
	}
	base := loss()
	_ = base
	l.Backward(coef)
	gmem := l.MemoryGrad()
	if gmem == nil || gmem.Dim(1) != 3 {
		t.Fatal("memory gradient missing")
	}
	const eps = 1e-2
	for _, i := range []int{0, 5, 11} {
		orig := mem.Data()[i]
		mem.Data()[i] = orig + eps
		up := loss()
		mem.Data()[i] = orig - eps
		down := loss()
		mem.Data()[i] = orig
		num := (up - down) / (2 * eps)
		if diff := num - float64(gmem.Data()[i]); diff > 5e-2*(1+math.Abs(num)) || diff < -5e-2*(1+math.Abs(num)) {
			t.Fatalf("memory grad[%d]: finite diff %.5f vs analytic %.5f", i, num, gmem.Data()[i])
		}
	}
}

func TestCrossAttentionDifferentSequenceLengths(t *testing.T) {
	rng := tensor.NewRNG(42)
	l := NewCrossAttention("cross", 8, 2, rng)
	mem := tensor.RandNormal(rng, 0, 1, 2, 7, 8) // encoder length 7
	l.SetMemory(mem)
	x := tensor.RandNormal(rng, 0, 1, 2, 3, 8) // decoder length 3
	y := l.Forward(x, false)
	if y.Dim(1) != 3 || y.Dim(2) != 8 {
		t.Fatalf("cross attention output %v", y.Shape())
	}
}

func TestCrossAttentionValidates(t *testing.T) {
	rng := tensor.NewRNG(43)
	l := NewCrossAttention("cross", 4, 1, rng)
	defer func() {
		if recover() == nil {
			t.Fatal("forward without memory must panic")
		}
	}()
	l.Forward(tensor.New(1, 2, 4), false)
}
