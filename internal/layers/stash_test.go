package layers

import (
	"math"
	"runtime"
	"testing"

	"tbd/internal/tensor"
)

// TestStashFollowsTrainMode holds every layer constructor to the protocol
// graph.Network.Forward documents: an eval-mode forward leaves no stash,
// a train-mode forward leaves one in the layers that have a backward to
// feed.
func TestStashFollowsTrainMode(t *testing.T) {
	rng := tensor.NewRNG(50)
	img := tensor.RandNormal(rng, 0, 1, 2, 3, 6, 6)
	seq := tensor.RandNormal(rng, 0, 1, 2, 5, 8)
	flat := tensor.RandNormal(rng, 0, 1, 4, 8)
	ids := tensor.FromSlice([]float32{0, 1, 2, 3, 4, 5}, 2, 3)
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
		{NewEmbedding("embed", 6, 4, rng), ids, true},
		{NewPositionalEncoding("pe", 8), seq, false},
		{NewRNN("rnn", 8, 4, rng), seq, true},
		{NewLSTM("lstm", 8, 4, rng), seq, true},
		{NewBiRNN("birnn", 8, 4, rng), seq, true},
		{NewBiLSTM("bilstm", 8, 4, rng), seq, true},
		{NewMultiHeadAttention("mha", 8, 2, true, rng), seq, true},
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

// TestSequenceLayersSteadyStateAllocation pins what a warmed forward +
// backward takes from the Go allocator for the recurrent driver and the
// attention core. Both work out of pooled buffers they release, so what
// remains is view headers: 2 560 B for the LSTM (3 968 B before no-op
// reshapes stopped copying their shape, 2.5 MB before the shared driver)
// and 656 B for attention (1 320 B, and 0.9 MB before the shared core).
// Each bound sits just above that reading, far below one leaked
// temporary: an [N, 4H] buffer leaked per timestep is 128 KB, an
// [N, T, d/heads] buffer leaked per head 32 KB. The bounds hold at one,
// two and three workers.
func TestSequenceLayersSteadyStateAllocation(t *testing.T) {
	defer tensor.SetParallelism(1)
	rng := tensor.NewRNG(51)
	for _, c := range []struct {
		l        Layer
		in, out  int
		maxBytes uint64
	}{
		{NewLSTM("lstm", 32, 64, rng), 32, 64, 3 << 10},
		{NewMultiHeadAttention("mha", 64, 4, false, rng), 64, 64, 768},
	} {
		x := tensor.RandNormal(rng, 0, 1, 8, 16, c.in)
		gy := tensor.Ones(8, 16, c.out)
		step := func() {
			c.l.Forward(x, true)
			c.l.Backward(gy)
		}
		for _, workers := range []int{1, 2, 3} {
			tensor.SetParallelism(workers)
			for i := 0; i < 3; i++ {
				step()
			}
			perIter := uint64(math.MaxUint64)
			for range windows {
				const iters = 20
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				for i := 0; i < iters; i++ {
					step()
				}
				runtime.ReadMemStats(&after)
				perIter = min(perIter, (after.TotalAlloc-before.TotalAlloc)/iters)
			}
			t.Logf("%s at %d workers: %d B per forward+backward", c.l.Name(), workers, perIter)
			if perIter > c.maxBytes {
				t.Errorf("%s forward+backward at %d workers allocates %d B per iteration, want at most %d", c.l.Name(), workers, perIter, c.maxBytes)
			}
		}
	}
}

// TestMaxPool2DStepAllocatesNothing pins that a warmed max-pooling forward
// and backward take nothing from the Go allocator: the layer hands its
// argmax slice back to tensor.MaxPool2D to refill, where it once received
// a fresh one per forward (every step of the detection twins). It holds
// at one, two and three workers.
func TestMaxPool2DStepAllocatesNothing(t *testing.T) {
	defer tensor.SetParallelism(1)
	rng := tensor.NewRNG(52)
	l := NewMaxPool2D("maxpool", 2, 2)
	x := tensor.RandNormal(rng, 0, 1, 4, 8, 16, 16)
	gy := tensor.RandNormal(rng, 0, 1, 4, 8, 8, 8)
	step := func() {
		l.Forward(x, true)
		l.Backward(gy)
	}
	for _, workers := range []int{1, 2, 3} {
		tensor.SetParallelism(workers)
		step()
		allocs, afterEval := math.Inf(1), math.Inf(1)
		for range windows {
			allocs = min(allocs, testing.AllocsPerRun(20, step))
			// An eval forward in between keeps the slice; the next training
			// forward still allocates nothing.
			l.Forward(x, false)
			afterEval = min(afterEval, testing.AllocsPerRun(1, step))
		}
		if allocs != 0 {
			t.Errorf("a warmed MaxPool2D forward + backward at %d workers allocates %v objects, want 0", workers, allocs)
		}
		if afterEval != 0 {
			t.Errorf("a training step after an eval forward at %d workers allocates %v objects, want 0", workers, afterEval)
		}
	}
}

// windows is how many times the allocation pins measure a step, keeping
// the fewest allocations. The runtime's counters are process-wide, and the
// runtime allocates on its own: on a loaded host the scheduler starts a
// new OS thread when it preempts a goroutine (its m, g0, gsignal and
// profiling stack, about 5 KB), and the background scavenger grows its
// timer heap. Such an allocation lands in one window; the step's own land in
// every one.
const windows = 3
