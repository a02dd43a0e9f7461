package graph

import (
	"testing"

	"tbd/internal/data"
	"tbd/internal/layers"
	"tbd/internal/optim"
	"tbd/internal/tensor"
)

// twoClusterBatch builds a linearly separable 2-class batch.
func twoClusterBatch(rng *tensor.RNG, n int) (*tensor.Tensor, []int) {
	x := tensor.New(n, 2)
	labels := make([]int, n)
	for i := 0; i < n; i++ {
		c := rng.Intn(2)
		labels[i] = c
		cx := float32(2*c - 1) // cluster centers at -1 and +1
		x.Set(cx+0.3*float32(rng.Norm()), i, 0)
		x.Set(cx+0.3*float32(rng.Norm()), i, 1)
	}
	return x, labels
}

func mlp(rng *tensor.RNG) *Network {
	return New("mlp", layers.NewSequential("mlp",
		layers.NewDense("fc1", 2, 16, rng),
		layers.NewReLU("relu1"),
		layers.NewDense("fc2", 16, 2, rng),
	))
}

func TestTrainClassifierLearnsSeparableData(t *testing.T) {
	rng := tensor.NewRNG(1)
	net := mlp(rng)
	opt := optim.NewSGD(0.1)
	var last StepResult
	for i := 0; i < 200; i++ {
		x, y := twoClusterBatch(rng, 32)
		last = TrainClassifierStep(net, opt, x, y, 0)
	}
	if last.Accuracy < 0.95 {
		t.Fatalf("accuracy %.2f after training, want >= 0.95", last.Accuracy)
	}
	// Held-out evaluation.
	x, y := twoClusterBatch(rng, 200)
	ev := EvalClassifier(net, x, y)
	if ev.Accuracy < 0.95 {
		t.Fatalf("eval accuracy %.2f", ev.Accuracy)
	}
}

func TestLossDecreasesOverTraining(t *testing.T) {
	rng := tensor.NewRNG(2)
	net := mlp(rng)
	opt := optim.NewSGD(0.1)
	x, y := twoClusterBatch(rng, 64)
	first := TrainClassifierStep(net, opt, x, y, 0).Loss
	var last float32
	for i := 0; i < 100; i++ {
		last = TrainClassifierStep(net, opt, x, y, 0).Loss
	}
	if last >= first/2 {
		t.Fatalf("loss did not halve: %.4f -> %.4f", first, last)
	}
}

func TestGradientClippingReported(t *testing.T) {
	rng := tensor.NewRNG(3)
	net := mlp(rng)
	x, y := twoClusterBatch(rng, 16)
	res := TrainClassifierStep(net, optim.NewSGD(0.01), x, y, 1e-6)
	if res.GradNorm <= 0 {
		t.Fatal("clip enabled but no norm reported")
	}
}

func TestTrainSequenceStepCopiesTask(t *testing.T) {
	// A one-layer LSTM + projection should learn to echo a 4-symbol
	// input sequence (per-token classification).
	rng := tensor.NewRNG(4)
	vocab, dim, hidden, T := 4, 8, 16, 5
	net := New("copier", layers.NewSequential("copier",
		layers.NewEmbedding("emb", vocab, dim, rng),
		layers.NewLSTM("lstm", dim, hidden, rng),
		layers.NewDense("proj", hidden, vocab, rng),
	))
	opt := optim.NewAdam(0.01)
	batch := 16
	makeBatch := func() (*tensor.Tensor, []int) {
		x := tensor.New(batch, T)
		labels := make([]int, batch*T)
		for i := 0; i < batch; i++ {
			for s := 0; s < T; s++ {
				tok := rng.Intn(vocab)
				x.Set(float32(tok), i, s)
				labels[i*T+s] = tok
			}
		}
		return x, labels
	}
	var acc float64
	for i := 0; i < 300; i++ {
		x, y := makeBatch()
		acc = TrainClassifierStep(net, opt, x, y, 5).Accuracy
	}
	if acc < 0.9 {
		t.Fatalf("copy-task accuracy %.2f, want >= 0.9", acc)
	}
}

func TestMemoryAccounting(t *testing.T) {
	rng := tensor.NewRNG(5)
	net := mlp(rng)
	// 2*16+16 + 16*2+2 = 82 params.
	if net.ParamCount() != 82 {
		t.Fatalf("param count %d, want 82", net.ParamCount())
	}
	if net.WeightBytes() != 328 || net.GradientBytes() != 328 {
		t.Fatal("weight/gradient bytes wrong")
	}
	if net.StashBytes() != 0 {
		t.Fatal("fresh network must have empty stash")
	}
	x, _ := twoClusterBatch(rng, 8)
	net.Forward(x, true)
	if net.StashBytes() == 0 {
		t.Fatal("training forward must stash feature maps")
	}
}

func TestGradientAccumulationMatchesFullBatch(t *testing.T) {
	// k micro-batches with accumulation produce the same update as one
	// full batch — the memory/batch trade of Observation 12, with
	// identical math.
	rng := tensor.NewRNG(20)
	x, labels := twoClusterBatch(rng, 16)

	full := mlp(tensor.NewRNG(9))
	TrainClassifierStep(full, optim.NewSGD(0.1), x, labels, 0)

	accum := mlp(tensor.NewRNG(9))
	// Split into 4 micro-batches of 4.
	var microX []*tensor.Tensor
	var microY [][]int
	for i := 0; i < 4; i++ {
		part := tensor.New(4, 2)
		copy(part.Data(), x.Data()[i*8:(i+1)*8])
		microX = append(microX, part)
		microY = append(microY, labels[i*4:(i+1)*4])
	}
	res := TrainClassifierAccumulated(accum, optim.NewSGD(0.1), microX, microY, 0)
	if res.Accuracy < 0 || res.Accuracy > 1 {
		t.Fatalf("bad accuracy %v", res.Accuracy)
	}
	for i, p := range full.Params() {
		if !tensor.Equal(p.Value, accum.Params()[i].Value, 1e-5) {
			t.Fatalf("accumulated update diverged at %s", p.Name)
		}
	}
}

func TestGradientAccumulationReducesPeakStash(t *testing.T) {
	rng := tensor.NewRNG(21)
	x, labels := twoClusterBatch(rng, 16)
	net := mlp(tensor.NewRNG(3))
	net.Forward(x, true)
	fullStash := net.StashBytes()

	// A micro-batch forward stashes a quarter as much at a time.
	quarter := tensor.New(4, 2)
	copy(quarter.Data(), x.Data()[:8])
	net.Forward(quarter, true)
	if net.StashBytes()*4 != fullStash {
		t.Fatalf("micro-batch stash %d x4 != full %d", net.StashBytes(), fullStash)
	}
	_ = labels
}

func TestLinearScalingRuleRecoversLargeBatchTraining(t *testing.T) {
	// The recipe the paper cites for data-parallel scaling (Goyal et
	// al.): when the batch grows kx, scale the learning rate kx and warm
	// it up. Large-batch training with the rule should roughly match
	// small-batch final loss; without it (same small LR), large-batch
	// training lags behind.
	evalLoss := func(net *Network, rng *tensor.RNG) float32 {
		x, y := twoClusterBatch(rng, 256)
		return EvalClassifier(net, x, y).Loss
	}
	train := func(batch, steps int, lr func(step int) float32) *Network {
		rng := tensor.NewRNG(30)
		net := mlp(tensor.NewRNG(2))
		opt := optim.NewSGD(0)
		for i := 0; i < steps; i++ {
			opt.LR = lr(i)
			x, y := twoClusterBatch(rng, batch)
			TrainClassifierStep(net, opt, x, y, 0)
		}
		return net
	}
	evalRNG := tensor.NewRNG(31)
	// Baseline: small batch, 160 updates at lr 0.05.
	small := evalLoss(train(8, 160, func(int) float32 { return 0.05 }), evalRNG)
	// Large batch sees 8x fewer updates for the same samples.
	naive := evalLoss(train(64, 20, func(int) float32 { return 0.05 }), evalRNG)
	// The scaled rate, ramped linearly over the first 5 steps.
	scaled := evalLoss(train(64, 20, func(step int) float32 { return 0.4 * float32(min(step+1, 5)) / 5 }), evalRNG)
	if scaled >= naive {
		t.Fatalf("linear scaling (%.4f) should beat the naive small LR (%.4f)", scaled, naive)
	}
	if scaled > small*3 {
		t.Fatalf("scaled large-batch loss %.4f too far from small-batch %.4f", scaled, small)
	}
}

func TestFixedSetOverfittingDetected(t *testing.T) {
	// Train on a tiny, mostly-noise fixed set: the model memorizes the
	// training split (accuracy ~1.0) while held-out accuracy stays far
	// lower — the classic overfitting signature the epoch/split
	// machinery exists to expose.
	rng := tensor.NewRNG(4)
	net := New("mlp", layers.NewSequential("mlp",
		layers.NewDense("fc1", 16, 128, rng),
		layers.NewReLU("relu1"),
		layers.NewDense("fc2", 128, 4, rng),
	))
	src := data.NewImageSource(tensor.NewRNG(5), 1, 4, 4, 4, 3.0) // mostly noise
	set := data.NewFixedImageSet(src, 40)
	trainSet, valSet := set.Split(0.5, tensor.NewRNG(6))
	opt := optim.NewAdam(0.01)
	trainSet.Epochs(250, 10, tensor.NewRNG(7), func(_ int, x *tensor.Tensor, labels []int) {
		TrainClassifierStep(net, opt, x.Reshape(x.Dim(0), -1), labels, 0)
	})
	evalOn := func(s *data.FixedImageSet) float64 {
		return EvalClassifier(net, s.X.Reshape(s.Len(), -1), s.Labels).Accuracy
	}
	trainAcc, valAcc := evalOn(trainSet), evalOn(valSet)
	if trainAcc < 0.95 {
		t.Fatalf("model failed to memorize the training split (%.2f)", trainAcc)
	}
	if trainAcc-valAcc < 0.2 {
		t.Fatalf("no overfitting gap detected: train %.2f vs val %.2f", trainAcc, valAcc)
	}
}

// smallCNN builds a conv classifier exercising the pooled conv, BN, and
// dense paths end to end.
func smallCNN(rng *tensor.RNG) *Network {
	return New("cnn", layers.NewSequential("cnn",
		layers.NewConv2D("c1", 1, 4, 3, 1, 1, rng),
		layers.NewBatchNorm2D("bn1", 4),
		layers.NewReLU("r1"),
		layers.NewGlobalAvgPool2D("gap"),
		layers.NewDense("fc", 4, 3, rng),
	))
}

// TestTrainingPooledMatchesUnpooled pins that buffer reuse cannot change
// training: the same steps with the arena on and off produce exactly the
// same losses, accuracies, and final weights.
func TestTrainingPooledMatchesUnpooled(t *testing.T) {
	src := data.NewImageSource(tensor.NewRNG(9), 1, 6, 6, 3, 0.3)
	batches := make([]data.ImageBatch, 6)
	for i := range batches {
		batches[i] = src.Batch(8)
	}
	run := func(pooled bool) ([]float32, *Network) {
		prev := tensor.SetPooling(pooled)
		defer tensor.SetPooling(prev)
		net := smallCNN(tensor.NewRNG(10))
		opt := optim.NewAdam(0.01)
		losses := make([]float32, len(batches))
		for i, b := range batches {
			losses[i] = TrainClassifierStep(net, opt, b.X, b.Labels, 5).Loss
		}
		return losses, net
	}
	wantLoss, wantNet := run(false)
	gotLoss, gotNet := run(true)
	for i := range wantLoss {
		if gotLoss[i] != wantLoss[i] {
			t.Fatalf("step %d: pooled loss %v != unpooled %v", i, gotLoss[i], wantLoss[i])
		}
	}
	wantParams, gotParams := wantNet.Root.Params(), gotNet.Root.Params()
	for i := range wantParams {
		if !tensor.Equal(gotParams[i].Value, wantParams[i].Value, 0) {
			t.Fatalf("param %s differs between pooled and unpooled training", wantParams[i].Name)
		}
	}
}

// EvalClassifier computes loss and accuracy without updating weights.
func EvalClassifier(n *Network, x *tensor.Tensor, labels []int) StepResult {
	logits := n.Forward(x, false)
	loss, grad := tensor.CrossEntropy(logits, labels)
	grad.Release()
	return StepResult{Loss: loss, Accuracy: tensor.Accuracy(logits, labels)}
}
