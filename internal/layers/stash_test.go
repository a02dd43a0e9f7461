package layers

import (
	"runtime"
	"testing"

	"tbd/internal/tensor"
)

// TestStashFollowsTrainMode holds every layer constructor to the protocol
// graph.Network.Infer documents: an eval-mode forward leaves no stash, a
// train-mode forward leaves one in the layers that have a backward to
// feed.
func TestStashFollowsTrainMode(t *testing.T) {
	rng := tensor.NewRNG(50)
	img := tensor.RandNormal(rng, 0, 1, 2, 3, 6, 6)
	seq := tensor.RandNormal(rng, 0, 1, 2, 5, 8)
	flat := tensor.RandNormal(rng, 0, 1, 4, 8)
	ids := tensor.FromSlice([]float32{0, 1, 2, 3, 4, 5}, 2, 3)
	cross := NewCrossAttention("cross", 8, 2, rng)
	cross.SetMemory(tensor.RandNormal(rng, 0, 1, 2, 4, 8))
	for _, c := range []struct {
		l       Layer
		x       *tensor.Tensor
		stashes bool
	}{
		{NewDense("dense", 8, 3, rng), flat, true},
		{NewDenseNoBias("dense-nobias", 8, 3, rng), flat, true},
		{NewDenseAct("dense-act", 8, 3, tensor.ActTanh, rng), flat, true},
		{NewFlatten("flatten"), img, false},
		{NewConv2D("conv", 3, 4, 3, 1, 1, rng), img, true},
		{NewConv2DNoBias("conv-nobias", 3, 4, 3, 1, 1, rng), img, true},
		{NewConv2DAct("conv-act", 3, 4, 3, 1, 1, tensor.ActReLU, rng), img, true},
		{NewMaxPool2D("maxpool", 2, 2), img, true},
		{NewAvgPool2D("avgpool", 2, 2), img, false},
		{NewGlobalAvgPool2D("gap"), img, false},
		{NewBatchNorm2D("bn", 3), img, true},
		{NewLayerNorm("ln", 8), flat, true},
		{NewReLU("relu"), flat, true},
		{NewSigmoid("sigmoid"), flat, true},
		{NewTanh("tanh"), flat, true},
		{NewLeakyReLU("leaky", 0.1), flat, true},
		{NewDropout("dropout", 0.5, rng), flat, true},
		{NewEmbedding("embed", 6, 4, rng), ids, true},
		{NewPositionalEncoding("pe", 8), seq, false},
		{NewRNN("rnn", 8, 4, rng), seq, true},
		{NewLSTM("lstm", 8, 4, rng), seq, true},
		{NewGRU("gru", 8, 4, rng), seq, true},
		{NewBiRNN("birnn", 8, 4, rng), seq, true},
		{NewBiLSTM("bilstm", 8, 4, rng), seq, true},
		{NewMultiHeadAttention("mha", 8, 2, true, rng), seq, true},
		{cross, seq, true},
		{NewSequential("seq", NewDense("fc", 8, 3, rng), NewReLU("act")), flat, true},
		{NewResidual("res", NewDense("body", 8, 8, rng), nil), flat, true},
		{NewConcatChannels("concat", NewConv2D("a", 3, 2, 1, 1, 0, rng), NewConv2D("b", 3, 2, 3, 1, 1, rng)), img, true},
	} {
		c.l.Forward(c.x, true)
		if got := c.l.StashBytes(); (got > 0) != c.stashes {
			t.Errorf("%s: StashBytes after train Forward = %d, stashes = %v", c.l.Name(), got, c.stashes)
		}
		c.l.Forward(c.x, false)
		if got := c.l.StashBytes(); got != 0 {
			t.Errorf("%s: StashBytes after eval Forward = %d", c.l.Name(), got)
		}
	}
}

// TestLSTMSteadyStateAllocation pins what a warmed LSTM step takes from the
// Go allocator at BenchmarkLSTMForwardBackward's shape. The timestep loop
// works out of pooled buffers it releases, so what remains is view headers,
// about 4 KB; before the shared driver the same step allocated 2.5 MB, and
// one [N, 4H] temporary leaked per timestep would be 128 KB.
func TestLSTMSteadyStateAllocation(t *testing.T) {
	rng := tensor.NewRNG(51)
	l := NewLSTM("lstm", 32, 64, rng)
	x := tensor.RandNormal(rng, 0, 1, 8, 16, 32)
	gy := tensor.Ones(8, 16, 64)
	step := func() {
		l.Forward(x, true)
		l.Backward(gy)
	}
	for i := 0; i < 3; i++ {
		step()
	}
	const iters = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < iters; i++ {
		step()
	}
	runtime.ReadMemStats(&after)
	if perIter := (after.TotalAlloc - before.TotalAlloc) / iters; perIter > 64<<10 {
		t.Errorf("LSTM forward+backward allocates %d KB per iteration, want at most 64", perIter>>10)
	}
}
