package models

import (
	"fmt"

	"tbd/internal/data"
	"tbd/internal/graph"
	"tbd/internal/kernels"
	"tbd/internal/tensor"
)

// seq2seqDims fixes the paper-scale GNMT-style geometry shared by the NMT
// (TensorFlow) and Sockeye (MXNet) implementations.
const (
	s2sEmbed  = 512
	s2sHidden = 512
	s2sLayers = 2 // per side: 2 encoder + 2 decoder LSTM layers
	s2sSeqLen = 25
)

// Seq2Seq is the LSTM-based machine-translation benchmark: NMT on
// TensorFlow and Sockeye on MXNet (Table 2 lists 5 layers, dominant layer
// LSTM). It is the workload behind Observations 2, 5, and 7: unfused
// per-timestep kernels that cannot saturate the GPU.
func Seq2Seq() *Model {
	return &Model{
		Name:          "Seq2Seq",
		Application:   "Machine translation",
		NumLayers:     5,
		DominantLayer: "LSTM",
		Frameworks:    []string{"TensorFlow", "MXNet"},
		Variant:       map[string]string{"TensorFlow": "NMT", "MXNet": "Sockeye"},
		Dataset:       data.IWSLT15,
		BatchSizes:    []int{4, 8, 16, 32, 64, 128},
		// TensorFlow's NMT fits batch 128 in 8 GB where Sockeye tops out
		// at 64 (§4.2.1, Observation 3).
		MaxBatch:  map[string]int{"TensorFlow": 128, "MXNet": 64},
		BatchUnit: "samples",
		SpeedFactor: map[string]float64{
			"TensorFlow": 1.0,
			"MXNet":      0.78, // Sockeye trails NMT at equal batch
		},
		BuildOps: buildSeq2Seq,
		Twin: translationTwin(func(rng *tensor.RNG) *graph.Network {
			return NumericSeq2Seq(rng, 12, 12, 24)
		}),
	}
}

func buildSeq2Seq() []*kernels.Op {
	var ops []*kernels.Op
	vocab := data.IWSLT15.VocabSize
	// Source embedding + encoder stack.
	ops = append(ops, &kernels.Op{Name: "enc.embed", Kind: kernels.OpEmbedding, Vocab: vocab, Dim: s2sEmbed, T: s2sSeqLen})
	in := s2sEmbed
	for i := 0; i < s2sLayers; i++ {
		ops = append(ops, &kernels.Op{
			Name: opName("enc.lstm", i), Kind: kernels.OpLSTMSeq,
			T: s2sSeqLen, Input: in, Hidden: s2sHidden,
		})
		in = s2sHidden
	}
	// Target embedding + decoder stack.
	ops = append(ops, &kernels.Op{Name: "dec.embed", Kind: kernels.OpEmbedding, Vocab: vocab, Dim: s2sEmbed, T: s2sSeqLen})
	in = s2sEmbed
	for i := 0; i < s2sLayers; i++ {
		ops = append(ops, &kernels.Op{
			Name: opName("dec.lstm", i), Kind: kernels.OpLSTMSeq,
			T: s2sSeqLen, Input: in, Hidden: s2sHidden,
		})
		in = s2sHidden
	}
	// Output projection over the 17188-token vocabulary, per token.
	ops = append(ops,
		&kernels.Op{Name: "proj", Kind: kernels.OpDense, In: s2sHidden, Out: vocab, Rows: s2sSeqLen},
		&kernels.Op{Name: "loss", Kind: kernels.OpLoss, Rows: s2sSeqLen, Out: vocab},
	)
	return ops
}

func opName(prefix string, i int) string {
	return fmt.Sprintf("%s%d", prefix, i)
}
