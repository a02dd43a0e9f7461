package models

import (
	"fmt"

	"tbd/internal/graph"
	"tbd/internal/layers"
	"tbd/internal/tensor"
)

// Numeric twins: scaled-down versions of the benchmark models that
// genuinely train on the synthetic datasets using the same layer
// implementations the paper-scale graphs describe. They back the
// Figure 2 convergence curves and serve as end-to-end tests of the
// training engine. Scale substitutions are documented in DESIGN.md.

// convNoBiasAct is NewConv2DNoBias with a fused activation epilogue — for
// branches where the conv feeds its activation directly (no BatchNorm in
// between).
func convNoBiasAct(name string, inC, outC, k, stride, pad int, act tensor.ActKind, rng *tensor.RNG) *layers.Conv2D {
	c := layers.NewConv2DNoBias(name, inC, outC, k, stride, pad, rng)
	c.Act = act
	return c
}

// NumericResNet builds a small residual CNN classifier over c×size×size
// images, the twin of ResNet-50 (bottleneck-free basic blocks at reduced
// width/depth).
func NumericResNet(rng *tensor.RNG, c, size, classes int) *graph.Network {
	width := 8
	block := func(name string, inC int) layers.Layer {
		body := layers.NewSequential(name+".body",
			layers.NewConv2DNoBias(name+".conv1", inC, width, 3, 1, 1, rng),
			layers.NewBatchNorm2D(name+".bn1", width),
			layers.NewReLU(name+".relu1"),
			layers.NewConv2DNoBias(name+".conv2", width, width, 3, 1, 1, rng),
			layers.NewBatchNorm2D(name+".bn2", width),
		)
		var proj layers.Layer
		if inC != width {
			proj = layers.NewConv2DNoBias(name+".proj", inC, width, 1, 1, 0, rng)
		}
		return layers.NewResidual(name, body, proj)
	}
	root := layers.NewSequential("resnet-twin",
		block("block1", c),
		layers.NewReLU("relu1"),
		block("block2", width),
		layers.NewReLU("relu2"),
		layers.NewGlobalAvgPool2D("gap"),
		layers.NewDense("fc", width, classes, rng),
	)
	return graph.New("ResNet-twin", root)
}

// NumericInception builds the Inception-v3 twin: a conv stem followed by
// a real mixed block — parallel 1x1, 3x3, and pooled branches joined by
// channel concatenation, exactly the Inception topology at reduced scale.
func NumericInception(rng *tensor.RNG, c, size, classes int) *graph.Network {
	mixed := layers.NewConcatChannels("mixed",
		layers.NewSequential("b1",
			layers.NewConv2DNoBias("b1.1x1", 8, 4, 1, 1, 0, rng),
			layers.NewBatchNorm2D("b1.bn", 4),
			layers.NewReLU("b1.relu"),
		),
		layers.NewSequential("b2",
			// No BatchNorm between this 1x1 and its ReLU, so the
			// activation fuses into the conv epilogue.
			convNoBiasAct("b2.1x1", 8, 4, 1, 1, 0, tensor.ActReLU, rng),
			layers.NewConv2DNoBias("b2.3x3", 4, 6, 3, 1, 1, rng),
			layers.NewBatchNorm2D("b2.bn", 6),
			layers.NewReLU("b2.relu2"),
		),
		layers.NewSequential("b3",
			layers.NewAvgPool2D("b3.pool", 3, 1),
			convNoBiasAct("b3.1x1", 8, 4, 1, 1, 1, tensor.ActReLU, rng),
		),
	)
	root := layers.NewSequential("inception-twin",
		layers.NewConv2DNoBias("stem", c, 8, 3, 1, 1, rng),
		layers.NewBatchNorm2D("stem.bn", 8),
		layers.NewReLU("stem.relu"),
		mixed,
		layers.NewGlobalAvgPool2D("gap"),
		layers.NewDense("fc", 14, classes, rng),
	)
	return graph.New("Inception-twin", root)
}

// NumericSeq2Seq builds the Seq2Seq twin: embedding, a two-layer LSTM
// stack, and a per-token vocabulary projection, trained on the synthetic
// translation task (the position-dependent token mapping is learnable by
// this encoder-tagger formulation while exercising the same LSTM layers).
func NumericSeq2Seq(rng *tensor.RNG, vocab, dim, hidden int) *graph.Network {
	root := layers.NewSequential("seq2seq-twin",
		layers.NewEmbedding("embed", vocab, dim, rng),
		layers.NewLSTM("lstm1", dim, hidden, rng),
		layers.NewLSTM("lstm2", hidden, hidden, rng),
		layers.NewDense("proj", hidden, vocab, rng),
	)
	return graph.New("Seq2Seq-twin", root)
}

// NumericTransformer builds the Transformer twin: embedding + positional
// encoding, one residual attention block with layer norm and FFN, and the
// vocabulary projection.
func NumericTransformer(rng *tensor.RNG, vocab, dim, heads int) *graph.Network {
	// ffn1's ReLU rides in the GEMM epilogue (bit-identical to the former
	// standalone layer, one less full-tensor pass each direction).
	ffn := layers.NewSequential("ffn",
		layers.NewDenseAct("ffn1", dim, 2*dim, tensor.ActReLU, rng),
		layers.NewDense("ffn2", 2*dim, dim, rng),
	)
	root := layers.NewSequential("transformer-twin",
		layers.NewEmbedding("embed", vocab, dim, rng),
		layers.NewPositionalEncoding("pe", dim),
		layers.NewResidual("block.attn", layers.NewMultiHeadAttention("mha", dim, heads, false, rng), nil),
		layers.NewLayerNorm("ln1", dim),
		layers.NewResidual("block.ffn", ffn, nil),
		layers.NewLayerNorm("ln2", dim),
		layers.NewDense("proj", dim, vocab, rng),
	)
	return graph.New("Transformer-twin", root)
}

// NumericDeepSpeech builds the Deep Speech 2 twin: a recurrent stack over
// audio feature frames with a per-frame symbol classifier (framewise
// cross-entropy on the aligned synthetic audio; see NumericDeepSpeechCTC
// for the bidirectional CTC variant).
func NumericDeepSpeech(rng *tensor.RNG, features, hidden, symbols int) *graph.Network {
	root := layers.NewSequential("ds2-twin",
		layers.NewRNN("rnn1", features, hidden, rng),
		layers.NewRNN("rnn2", hidden, hidden, rng),
		layers.NewGRU("gru", hidden, hidden, rng),
		layers.NewDense("fc", hidden, symbols, rng),
	)
	return graph.New("DeepSpeech2-twin", root)
}

// NumericDeepSpeechCTC builds the faithful Deep Speech 2 twin:
// bidirectional vanilla-RNN layers over feature frames with a CTC output
// head (symbols includes the blank at index 0). Train it with
// DeepSpeechCTCStep.
func NumericDeepSpeechCTC(rng *tensor.RNG, features, hidden, symbols int) *graph.Network {
	root := layers.NewSequential("ds2-ctc-twin",
		layers.NewBiRNN("birnn1", features, hidden, rng),
		layers.NewBiRNN("birnn2", 2*hidden, hidden, rng),
		layers.NewDense("fc", 2*hidden, symbols, rng),
	)
	return graph.New("DeepSpeech2-CTC-twin", root)
}

// NumericA3CPolicy builds the A3C twin's actor-critic network over Pong's
// 6-feature state: a shared trunk with a 3-way policy head and a value
// head emitted as 4 outputs (logits[0:3], value[3]).
func NumericA3CPolicy(rng *tensor.RNG) *graph.Network {
	root := layers.NewSequential("a3c-twin",
		layers.NewDenseAct("fc1", 6, 32, tensor.ActTanh, rng),
		layers.NewDense("heads", 32, 4, rng),
	)
	return graph.New("A3C-twin", root)
}

// NumericA3CPixelPolicy builds the pixel-input variant matching the
// paper's 4-layer conv architecture (4×size×size frame stacks).
func NumericA3CPixelPolicy(rng *tensor.RNG, size int) *graph.Network {
	h1 := (size-8)/4 + 1
	h2 := (h1-4)/2 + 1
	root := layers.NewSequential("a3c-pixel-twin",
		layers.NewConv2DAct("conv1", 4, 8, 8, 4, 0, tensor.ActReLU, rng),
		layers.NewConv2DAct("conv2", 8, 16, 4, 2, 0, tensor.ActReLU, rng),
		layers.NewFlatten("flat"),
		layers.NewDenseAct("fc", 16*h2*h2, 64, tensor.ActReLU, rng),
		layers.NewDense("heads", 64, 4, rng),
	)
	return graph.New("A3C-pixel-twin", root)
}

// NumericWGAN builds the WGAN twin's generator (latent -> image) and
// critic (image -> score) networks at reduced scale.
func NumericWGAN(rng *tensor.RNG, latent, c, size int) (gen, critic *graph.Network) {
	gen = graph.New("WGAN-gen", layers.NewSequential("gen",
		layers.NewDenseAct("fc1", latent, 32, tensor.ActReLU, rng),
		layers.NewDenseAct("fc2", 32, c*size*size, tensor.ActTanh, rng),
	))
	critic = graph.New("WGAN-critic", layers.NewSequential("critic",
		layers.NewDense("fc1", c*size*size, 32, rng),
		layers.NewLeakyReLU("lrelu", 0.2),
		layers.NewDense("fc2", 32, 1, rng),
	))
	return gen, critic
}

// NumericDetector builds the Faster R-CNN twin: a shared conv trunk with
// a classification head (object class) and a localization head (box
// center regression), trained jointly like the detector's multi-task
// loss.
type NumericDetector struct {
	Trunk   *layers.Sequential
	ClsHead *layers.Dense
	BoxHead *layers.Dense
}

// NewNumericDetector constructs the detection twin for c×size×size
// inputs over the given number of object classes.
func NewNumericDetector(rng *tensor.RNG, c, size, classes int) *NumericDetector {
	trunk := layers.NewSequential("trunk",
		layers.NewConv2DAct("conv1", c, 8, 3, 1, 1, tensor.ActReLU, rng),
		layers.NewMaxPool2D("pool", 2, 2),
		layers.NewFlatten("flat"),
	)
	feat := 8 * (size / 2) * (size / 2)
	return &NumericDetector{
		Trunk:   trunk,
		ClsHead: layers.NewDense("cls", feat, classes, rng),
		BoxHead: layers.NewDense("box", feat, 2, rng),
	}
}

// Params returns all detector parameters.
func (d *NumericDetector) Params() []*layers.Param {
	ps := d.Trunk.Params()
	ps = append(ps, d.ClsHead.Params()...)
	ps = append(ps, d.BoxHead.Params()...)
	return ps
}

// Forward runs the trunk and both heads.
func (d *NumericDetector) Forward(x *tensor.Tensor, train bool) (cls, box *tensor.Tensor) {
	f := d.Trunk.Forward(x, train)
	return d.ClsHead.Forward(f, train), d.BoxHead.Forward(f, train)
}

// Backward propagates both heads' gradients through the shared trunk.
func (d *NumericDetector) Backward(gCls, gBox *tensor.Tensor) {
	gf := d.ClsHead.Backward(gCls)
	gf2 := d.BoxHead.Backward(gBox)
	tensor.AddInPlace(gf, gf2)
	d.Trunk.BackwardParams(gf)
}

// MSELoss computes mean squared error and its gradient for the box head.
func MSELoss(pred *tensor.Tensor, target []float32) (float32, *tensor.Tensor) {
	if pred.Numel() != len(target) {
		panic(fmt.Sprintf("models: MSE size mismatch %d vs %d", pred.Numel(), len(target)))
	}
	grad := tensor.New(pred.Shape()...)
	var loss float64
	n := float32(pred.Numel())
	for i, p := range pred.Data() {
		d := p - target[i]
		loss += float64(d) * float64(d)
		grad.Data()[i] = 2 * d / n
	}
	return float32(loss) / n, grad
}
