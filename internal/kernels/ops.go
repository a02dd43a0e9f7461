package kernels

import "fmt"

// Kind identifies a layer-level operation in a paper-scale model graph.
type Kind int

// Operation kinds covering every layer type in the TBD model zoo.
const (
	OpConv2D Kind = iota
	OpDense
	OpBatchNorm
	OpLayerNorm
	OpActivation
	OpMaxPool
	OpAvgPool
	OpSoftmax
	OpRNNSeq
	OpLSTMSeq
	OpAttention
	OpEmbedding
	OpElemAdd
	OpLoss
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	names := map[Kind]string{
		OpConv2D: "conv2d", OpDense: "dense", OpBatchNorm: "batchnorm",
		OpLayerNorm: "layernorm", OpActivation: "activation",
		OpMaxPool: "maxpool", OpAvgPool: "avgpool", OpSoftmax: "softmax",
		OpRNNSeq: "rnn", OpLSTMSeq: "lstm",
		OpAttention: "attention", OpEmbedding: "embedding",
		OpElemAdd: "add", OpLoss: "loss",
	}
	if s, ok := names[k]; ok {
		return s
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// NameStyle selects the framework flavour of emitted kernel names,
// mirroring how the same model invokes differently named kernels on
// TensorFlow vs MXNet vs CNTK (paper Tables 5 and 6).
type NameStyle int

// Name styles for the three frameworks.
const (
	StyleTF NameStyle = iota
	StyleMXNet
	StyleCNTK
)

// Op describes one layer of a paper-scale model with its per-sample
// shapes. Batch size is supplied at kernel-emission time so one model
// graph serves every point of a mini-batch sweep.
type Op struct {
	Name string
	Kind Kind

	// Convolution / pooling / normalization geometry (per sample).
	InC, OutC      int
	H, W           int // input spatial size
	K, Stride, Pad int

	// Dense geometry: Rows rows of In features -> Out features per sample
	// (Rows > 1 for per-token projections in sequence models).
	In, Out, Rows int

	// Recurrent geometry: T timesteps of Input features with Hidden units.
	T, Input, Hidden int

	// Attention geometry: SeqLen tokens of Dim features with Heads heads.
	Dim, Heads, SeqLen int

	// Embedding geometry.
	Vocab int

	// Channels for normalization layers; Elems for pointwise ops when set
	// explicitly (otherwise derived from geometry).
	Channels int
	Elems    int

	// SharesInput marks ops whose saved input is the same tensor another
	// op already stashed (parallel branches of an Inception block), so
	// the memory profiler does not double-count it.
	SharesInput bool

	// Algo selects the convolution algorithm (zero value =
	// precomp-GEMM, the baseline). Set via ChooseConvAlgos.
	Algo ConvAlgo
}

// OutH returns the convolution/pooling output height.
func (o *Op) OutH() int { return (o.H+2*o.Pad-o.K)/o.Stride + 1 }

// OutW returns the convolution/pooling output width.
func (o *Op) OutW() int { return (o.W+2*o.Pad-o.K)/o.Stride + 1 }

// OutputElemsPerSample returns the size of this op's output feature map
// for one input sample.
func (o *Op) OutputElemsPerSample() int64 {
	switch o.Kind {
	case OpConv2D:
		return int64(o.OutC) * int64(o.OutH()) * int64(o.OutW())
	case OpMaxPool, OpAvgPool:
		return int64(o.InC) * int64(o.OutH()) * int64(o.OutW())
	case OpDense:
		return int64(o.Rows) * int64(o.Out)
	case OpBatchNorm, OpLayerNorm, OpActivation, OpSoftmax, OpElemAdd, OpLoss:
		return int64(o.elems())
	case OpRNNSeq, OpLSTMSeq:
		return int64(o.T) * int64(o.Hidden)
	case OpAttention:
		return int64(o.SeqLen) * int64(o.Dim)
	case OpEmbedding:
		return int64(o.T) * int64(o.Dim)
	default:
		return 0
	}
}

// elems returns the per-sample element count of a pointwise-style op.
func (o *Op) elems() int {
	if o.Elems > 0 {
		return o.Elems
	}
	if o.Channels > 0 && o.H > 0 {
		return o.Channels * o.H * o.W
	}
	if o.Rows > 0 && o.Out > 0 {
		return o.Rows * o.Out
	}
	return o.Out
}

// ParamElems returns the number of trainable scalars this op owns.
func (o *Op) ParamElems() int64 {
	switch o.Kind {
	case OpConv2D:
		return int64(o.OutC)*int64(o.InC)*int64(o.K)*int64(o.K) + int64(o.OutC)
	case OpDense:
		return int64(o.In)*int64(o.Out) + int64(o.Out)
	case OpBatchNorm:
		return 2 * int64(o.Channels)
	case OpLayerNorm:
		return 2 * int64(o.Channels)
	case OpRNNSeq:
		return int64(o.Input)*int64(o.Hidden) + int64(o.Hidden)*int64(o.Hidden) + int64(o.Hidden)
	case OpLSTMSeq:
		return 4 * (int64(o.Input)*int64(o.Hidden) + int64(o.Hidden)*int64(o.Hidden) + int64(o.Hidden))
	case OpAttention:
		return 4 * int64(o.Dim) * int64(o.Dim)
	case OpEmbedding:
		return int64(o.Vocab) * int64(o.Dim)
	default:
		return 0
	}
}

// StashElemsPerSample returns the per-sample feature-map elements this op
// must keep resident for its backward pass: its input (or an equivalent
// saved activation) plus any internal intermediates. This is the quantity
// whose dominance the paper's Observation 11 establishes.
func (o *Op) StashElemsPerSample() int64 {
	out := o.OutputElemsPerSample()
	if o.SharesInput {
		return 0
	}
	switch o.Kind {
	case OpConv2D:
		return int64(o.InC) * int64(o.H) * int64(o.W) // saved input
	case OpDense:
		return int64(o.Rows) * int64(o.In)
	case OpBatchNorm, OpLayerNorm:
		return out // normalized activations (xhat)
	case OpActivation:
		return out // mask / saved output
	case OpMaxPool:
		return 2 * out // argmax indices (stored as wide ints)
	case OpAvgPool:
		return 0
	case OpSoftmax:
		return out
	case OpRNNSeq:
		// Fused cuDNN RNN reserve space: per-step inputs, hidden states,
		// and pre-activations for both the forward output and the
		// backward reserve buffer.
		return int64(o.T) * int64(o.Input+10*o.Hidden)
	case OpLSTMSeq:
		// Dataflow frameworks stash every node output of the unrolled
		// step: x, hPrev, cPrev, the 4H pre-activation, 4 gates, c, and
		// tanh(c) — ~12H per step per sample.
		return int64(o.T) * int64(o.Input+12*o.Hidden)
	case OpAttention:
		// q, k, v, context + attention matrix (SeqLen² per head).
		return 4*int64(o.SeqLen)*int64(o.Dim) + int64(o.Heads)*int64(o.SeqLen)*int64(o.SeqLen)
	case OpEmbedding:
		return int64(o.T) * int64(o.Dim+1) // embedded output + token ids
	case OpElemAdd:
		return 0
	case OpLoss:
		// Logits, softmax output, and gradient staging all live until the
		// backward pass.
		return 3 * out
	default:
		return 0
	}
}

// WorkspaceBytes returns the scratch-buffer bytes this op needs at batch
// size n — the analogue of cuDNN convolution workspace. Frameworks reuse
// one arena sized to the maximum across ops.
func (o *Op) WorkspaceBytes(n int) int64 {
	switch o.Kind {
	case OpConv2D:
		// Half of the full im2col lowering buffer: cuDNN's
		// implicit-precomp-GEMM algorithms materialize only index
		// metadata plus partial tiles rather than the whole matrix.
		// Other algorithms scale this baseline (see algoProfile).
		base := int64(n) * int64(o.OutH()) * int64(o.OutW()) * int64(o.InC*o.K*o.K) * 4 / 2
		_, ws := algoProfile(o.Algo)
		return int64(float64(base) * ws)
	case OpAttention:
		// scores scratch per head.
		return int64(n) * int64(o.Heads) * int64(o.SeqLen) * int64(o.SeqLen) * 4
	default:
		return 0
	}
}

// validate panics when an op is degenerate (guards model builders).
func (o *Op) validate() {
	if o.Name == "" {
		panic("kernels: op without a name")
	}
}
