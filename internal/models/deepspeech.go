package models

import (
	"tbd/internal/data"
	"tbd/internal/graph"
	"tbd/internal/kernels"
	"tbd/internal/layers"
	"tbd/internal/optim"
	"tbd/internal/tensor"
)

// Deep Speech 2 geometry: the paper uses MXNet's default configuration
// with 2 convolutional layers and 5 vanilla recurrent layers (the
// official model's 7 RNN layers were reduced to 5 for memory, per the
// paper's footnote).
const (
	ds2Freq    = 161  // spectrogram frequency bins
	ds2Frames  = 600  // ~12 s clips at 10 ms stride after 2x conv striding
	ds2Hidden  = 1760 // MXNet default hidden width
	ds2RNNs    = 5
	ds2Symbols = 29 // English characters + blank
)

// DeepSpeech2 is the end-to-end speech-recognition benchmark (MXNet
// only). Its recurrent stack uses fused whole-sequence vanilla-RNN
// kernels, so unlike the LSTM seq2seq models it sustains high GPU
// utilization, and its throughput scales almost linearly in the 1-4
// mini-batch range the 8 GB GPU can hold (Figure 4f, Observation 2).
func DeepSpeech2() *Model {
	return &Model{
		Name:          "Deep Speech 2",
		Application:   "Speech recognition",
		NumLayers:     9,
		DominantLayer: "RNN",
		Frameworks:    []string{"MXNet"},
		Dataset:       data.LibriSpeech,
		BatchSizes:    []int{1, 2, 3, 4},
		BatchUnit:     "samples",
		BuildOps:      buildDeepSpeech2,
		Twin:          &Twin{Metric: "ctc loss", Batch: 1, Train: trainDeepSpeechTwin},
	}
}

// trainDeepSpeechTwin trains the bidirectional CTC twin on one fixed
// utterance: ten frames, each frame's hot feature bin its symbol, against
// the unaligned transcript. The curve is each step's CTC loss.
func trainDeepSpeechTwin(rng *tensor.RNG, steps int) []TwinPoint {
	net := NumericDeepSpeechCTC(rng, 8, 16, 5)
	opt := optim.NewAdam(0.01)
	frames := []int{1, 1, 2, 2, 2, 3, 3, 4, 4, 4}
	x := tensor.New(1, len(frames), 8)
	for t, s := range frames {
		x.Set(2, 0, t, s)
	}
	loss := ctcLoss([][]int{{1, 2, 3, 4}})
	return curve(steps, 1, func() float64 {
		return float64(graph.TrainStep(net, opt, x, loss, 5).Loss)
	})
}

// ctcLoss is the CTC loss of an [N, T, V] output against N unaligned
// label sequences.
func ctcLoss(labels [][]int) graph.Loss {
	return func(_ int, out *tensor.Tensor) (float32, *tensor.Tensor, float64) {
		loss, grad := layers.CTCLossBatch(out, labels)
		return loss, grad, 0
	}
}

func buildDeepSpeech2() []*kernels.Op {
	var ops []*kernels.Op
	// Two 2-D convolutions over the (freq x time) spectrogram, striding
	// time down to ds2Frames.
	h, w := convBNRelu(&ops, "conv1", 1, 32, ds2Freq, ds2Frames*2, 5, 2, 2)
	h, w = convBNRelu(&ops, "conv2", 32, 32, h, w, 5, 1, 2)

	// Recurrent stack over the flattened frequency features.
	in := 32 * h
	_ = w
	for i := 0; i < ds2RNNs; i++ {
		ops = append(ops, &kernels.Op{
			Name: opName("rnn", i), Kind: kernels.OpRNNSeq,
			T: ds2Frames, Input: in, Hidden: ds2Hidden,
		})
		in = ds2Hidden
	}
	ops = append(ops,
		&kernels.Op{Name: "fc", Kind: kernels.OpDense, In: ds2Hidden, Out: ds2Symbols, Rows: ds2Frames},
		&kernels.Op{Name: "ctc", Kind: kernels.OpLoss, Rows: ds2Frames, Out: ds2Symbols},
	)
	return ops
}
