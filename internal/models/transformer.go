package models

import (
	"tbd/internal/data"
	"tbd/internal/graph"
	"tbd/internal/kernels"
	"tbd/internal/tensor"
)

// Transformer geometry: the base configuration of Vaswani et al.
const (
	tfmDim    = 512
	tfmHeads  = 8
	tfmFFN    = 2048
	tfmBlocks = 6 // encoder blocks + 6 decoder blocks = 12 layers (Table 2)
	tfmSeqLen = 25
)

// Transformer is the attention-based translation benchmark (TensorFlow
// only in the paper). Its batch sweep is measured in tokens (64-4096,
// Figure 4d), and its attention layers keep the GPU busy where the LSTM
// seq2seq models cannot (Observation 5).
func Transformer() *Model {
	return &Model{
		Name:                "Transformer",
		Application:         "Machine translation",
		NumLayers:           12,
		DominantLayer:       "Attention",
		Frameworks:          []string{"TensorFlow"},
		Dataset:             data.IWSLT15,
		BatchSizes:          []int{64, 256, 1024, 2048, 4096},
		BatchUnit:           "tokens",
		SamplesPerBatchUnit: tfmSeqLen,
		BuildOps:            buildTransformer,
		Twin: translationTwin(func(rng *tensor.RNG) *graph.Network {
			return NumericTransformer(rng, 12, 16, 2)
		}),
	}
}

// transformerBlock appends one attention block: self-attention, residual
// layer-norm, position-wise FFN, residual layer-norm.
func transformerBlock(ops *[]*kernels.Op, name string) {
	*ops = append(*ops,
		&kernels.Op{Name: name + ".attn", Kind: kernels.OpAttention, Dim: tfmDim, Heads: tfmHeads, SeqLen: tfmSeqLen},
		&kernels.Op{Name: name + ".add1", Kind: kernels.OpElemAdd, Rows: tfmSeqLen, Out: tfmDim},
		&kernels.Op{Name: name + ".ln1", Kind: kernels.OpLayerNorm, Channels: tfmDim, Elems: tfmSeqLen * tfmDim},
		&kernels.Op{Name: name + ".ffn1", Kind: kernels.OpDense, In: tfmDim, Out: tfmFFN, Rows: tfmSeqLen},
		&kernels.Op{Name: name + ".ffn.relu", Kind: kernels.OpActivation, Elems: tfmSeqLen * tfmFFN},
		&kernels.Op{Name: name + ".ffn2", Kind: kernels.OpDense, In: tfmFFN, Out: tfmDim, Rows: tfmSeqLen},
		&kernels.Op{Name: name + ".add2", Kind: kernels.OpElemAdd, Rows: tfmSeqLen, Out: tfmDim},
		&kernels.Op{Name: name + ".ln2", Kind: kernels.OpLayerNorm, Channels: tfmDim, Elems: tfmSeqLen * tfmDim},
	)
}

func buildTransformer() []*kernels.Op {
	var ops []*kernels.Op
	vocab := data.IWSLT15.VocabSize
	ops = append(ops, &kernels.Op{Name: "embed", Kind: kernels.OpEmbedding, Vocab: vocab, Dim: tfmDim, T: tfmSeqLen})
	for i := 0; i < tfmBlocks; i++ {
		transformerBlock(&ops, opName("enc.block", i))
	}
	ops = append(ops, &kernels.Op{Name: "dec.embed", Kind: kernels.OpEmbedding, Vocab: vocab, Dim: tfmDim, T: tfmSeqLen})
	for i := 0; i < tfmBlocks; i++ {
		transformerBlock(&ops, opName("dec.block", i))
	}
	ops = append(ops,
		&kernels.Op{Name: "proj", Kind: kernels.OpDense, In: tfmDim, Out: vocab, Rows: tfmSeqLen},
		&kernels.Op{Name: "loss", Kind: kernels.OpLoss, Rows: tfmSeqLen, Out: vocab},
	)
	return ops
}
