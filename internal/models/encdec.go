package models

import (
	"tbd/internal/layers"
	"tbd/internal/optim"
	"tbd/internal/tensor"
)

// EncoderDecoder is the faithful seq2seq twin: a recurrent encoder over
// the source sentence and a decoder that attends over the encoder outputs
// with cross-attention — the NMT architecture the paper benchmarks, with
// real information flow through the attention bottleneck (the plain
// NumericSeq2Seq twin is an encoder-tagger).
type EncoderDecoder struct {
	SrcEmb *layers.Embedding
	Enc    *layers.LSTM
	EncPE  *layers.PositionalEncoding
	TgtEmb *layers.Embedding
	Dec    *layers.LSTM
	DecPE  *layers.PositionalEncoding
	Cross  *layers.CrossAttention
	Proj   *layers.Dense
}

// NewEncoderDecoder builds the twin over the given vocabulary with model
// dimension d.
func NewEncoderDecoder(rng *tensor.RNG, vocab, d, heads int) *EncoderDecoder {
	return &EncoderDecoder{
		SrcEmb: layers.NewEmbedding("src.emb", vocab, d, rng),
		Enc:    layers.NewLSTM("enc.lstm", d, d, rng),
		EncPE:  layers.NewPositionalEncoding("enc.pe", d),
		TgtEmb: layers.NewEmbedding("tgt.emb", vocab, d, rng),
		Dec:    layers.NewLSTM("dec.lstm", d, d, rng),
		DecPE:  layers.NewPositionalEncoding("dec.pe", d),
		Cross:  layers.NewCrossAttention("cross", d, heads, rng),
		Proj:   layers.NewDense("proj", d, vocab, rng),
	}
}

// Params returns all trainable parameters.
func (m *EncoderDecoder) Params() []*layers.Param {
	var ps []*layers.Param
	for _, l := range []layers.Layer{m.SrcEmb, m.Enc, m.TgtEmb, m.Dec, m.Cross, m.Proj} {
		ps = append(ps, l.Params()...)
	}
	return ps
}

// Forward runs src through the encoder and tgtIn (teacher-forced decoder
// input tokens) through the decoder + cross-attention, returning
// per-position vocabulary logits [N, Td, V].
func (m *EncoderDecoder) Forward(src, tgtIn *tensor.Tensor, train bool) *tensor.Tensor {
	enc := m.Enc.Forward(m.EncPE.Forward(m.SrcEmb.Forward(src, train), train), train)
	dec := m.Dec.Forward(m.DecPE.Forward(m.TgtEmb.Forward(tgtIn, train), train), train)
	m.Cross.SetMemory(enc)
	ctx := m.Cross.Forward(dec, train)
	// Residual: context + decoder state.
	fused := tensor.Add(ctx, dec)
	return m.Proj.Forward(fused, train)
}

// Step runs one teacher-forced training step against flat per-position
// targets [N*Td] and returns loss and token accuracy.
func (m *EncoderDecoder) Step(opt optim.Optimizer, src, tgtIn *tensor.Tensor, targets []int, clip float32) (float32, float64) {
	params := m.Params()
	optim.ZeroGrads(params)
	out := m.Forward(src, tgtIn, true) //tbd:retain the projection layer owns its forward buffer and releases it on the next step
	rows := len(targets)
	logits := out.Reshape(rows, out.Numel()/rows)
	loss, grad := tensor.CrossEntropy(logits, targets)
	m.Backward(grad.Reshape(out.Shape()...))
	if clip > 0 {
		optim.ClipGradNorm(params, clip)
	}
	opt.Step(params)
	return loss, tensor.Accuracy(logits, targets)
}

// Backward propagates through both branches: the projection gradient
// splits into the residual context and decoder paths; the cross-attention
// routes its memory gradient back into the encoder.
func (m *EncoderDecoder) Backward(gy *tensor.Tensor) {
	gfused := m.Proj.Backward(gy)
	// Residual: gradient reaches both the context and the decoder.
	gdec := m.Cross.Backward(gfused) // query-path gradient
	tensor.AddInPlace(gdec, gfused)  // plus the residual path
	m.TgtEmb.BackwardParams(m.DecPE.Backward(m.Dec.Backward(gdec)))
	genc := m.Cross.MemoryGrad()
	m.SrcEmb.BackwardParams(m.EncPE.Backward(m.Enc.Backward(genc)))
}
