package kernels

import (
	"strings"
	"testing"

	"tbd/internal/device"
)

// allKindsOps builds one op of every kind with small valid geometry.
func allKindsOps() []*Op {
	return []*Op{
		{Name: "conv", Kind: OpConv2D, InC: 3, OutC: 8, H: 16, W: 16, K: 3, Stride: 1, Pad: 1},
		{Name: "dense", Kind: OpDense, In: 64, Out: 32, Rows: 4},
		{Name: "bn", Kind: OpBatchNorm, Channels: 8, H: 16, W: 16},
		{Name: "ln", Kind: OpLayerNorm, Channels: 32, Elems: 4 * 32},
		{Name: "act", Kind: OpActivation, Channels: 8, H: 16, W: 16},
		{Name: "maxpool", Kind: OpMaxPool, InC: 8, H: 16, W: 16, K: 2, Stride: 2},
		{Name: "avgpool", Kind: OpAvgPool, InC: 8, H: 16, W: 16, K: 2, Stride: 2},
		{Name: "softmax", Kind: OpSoftmax, Elems: 100},
		{Name: "rnn", Kind: OpRNNSeq, T: 8, Input: 16, Hidden: 32},
		{Name: "lstm", Kind: OpLSTMSeq, T: 8, Input: 16, Hidden: 32},
		{Name: "attn", Kind: OpAttention, Dim: 32, Heads: 4, SeqLen: 8},
		{Name: "emb", Kind: OpEmbedding, Vocab: 100, Dim: 16, T: 8},
		{Name: "add", Kind: OpElemAdd, Elems: 512},
		{Name: "loss", Kind: OpLoss, Elems: 100},
	}
}

func TestEveryKindEmitsOnEveryStyle(t *testing.T) {
	for _, style := range []NameStyle{StyleTF, StyleMXNet, StyleCNTK} {
		for _, op := range allKindsOps() {
			fw := op.Forward(4, style)
			if len(fw) == 0 {
				t.Fatalf("style %d: %s emits no forward kernels", style, op.Name)
			}
			bw := op.Backward(4, style)
			if op.Kind != OpElemAdd && len(bw) == 0 {
				t.Fatalf("style %d: %s emits no backward kernels", style, op.Name)
			}
			for _, k := range append(fw, bw...) {
				if k.Name == "" {
					t.Fatalf("%s emitted a nameless kernel", op.Name)
				}
				if k.FLOPs < 0 || k.Bytes <= 0 {
					t.Fatalf("%s kernel %s has invalid cost (%g FLOPs, %g bytes)", op.Name, k.Name, k.FLOPs, k.Bytes)
				}
				if d := k.Duration(device.QuadroP4000); d <= 0 {
					t.Fatalf("%s kernel %s has duration %g", op.Name, k.Name, d)
				}
			}
		}
	}
}

func TestUpdateKernelsOnlyForParameterizedOps(t *testing.T) {
	for _, op := range allKindsOps() {
		up := op.Update(StyleTF)
		hasParams := op.ParamElems() > 0
		if hasParams && len(up) == 0 {
			t.Fatalf("%s has parameters but no update kernel", op.Name)
		}
		if !hasParams && len(up) != 0 {
			t.Fatalf("%s has no parameters but emits update kernels", op.Name)
		}
	}
}

func TestCNTKStyleNames(t *testing.T) {
	d := &Op{Name: "fc", Kind: OpDense, In: 8, Out: 8, Rows: 1}
	ks := d.Forward(1, StyleCNTK)
	var sawCNTK bool
	for _, k := range ks {
		if strings.Contains(k.Name, "cntk") || strings.Contains(k.Name, "cublas") {
			sawCNTK = true
		}
	}
	if !sawCNTK {
		t.Fatalf("CNTK style produced no CNTK/cublas kernels: %+v", ks)
	}
}

func TestLSTMEmitsPerStepSyncs(t *testing.T) {
	l := &Op{Name: "lstm", Kind: OpLSTMSeq, T: 10, Input: 16, Hidden: 16}
	for dir, ks := range map[string][]Kernel{"forward": l.Forward(2, StyleMXNet), "backward": l.Backward(2, StyleMXNet)} {
		syncs := 0
		for _, k := range ks {
			if k.Sync {
				syncs++
			}
		}
		if syncs != 10 {
			t.Fatalf("LSTM %s has %d sync points, want one per timestep", dir, syncs)
		}
	}
}

func TestFusedRNNIsSingleSerialKernel(t *testing.T) {
	r := &Op{Name: "rnn", Kind: OpRNNSeq, T: 50, Input: 64, Hidden: 64}
	fw := r.Forward(2, StyleMXNet)
	if len(fw) != 1 {
		t.Fatalf("fused RNN emits %d kernels, want 1", len(fw))
	}
	if fw[0].Serial != 50 {
		t.Fatalf("fused RNN Serial = %d, want T", fw[0].Serial)
	}
	if fw[0].Sync {
		t.Fatal("fused RNN must not host-sync")
	}
	// Serial kernels take at least T * launch-ish floors longer than a
	// same-FLOPs fully parallel kernel at small batch.
	parallel := fw[0]
	parallel.Serial = 1
	if fw[0].Duration(device.QuadroP4000) <= parallel.Duration(device.QuadroP4000) {
		t.Fatal("serialization must cost time")
	}
}

func TestOutputElemsConsistency(t *testing.T) {
	for _, op := range allKindsOps() {
		if op.OutputElemsPerSample() <= 0 {
			t.Fatalf("%s has no output elements", op.Name)
		}
	}
	// Pool geometry: 16x16 pooled by 2/2 -> 8x8.
	p := &Op{Name: "p", Kind: OpMaxPool, InC: 8, H: 16, W: 16, K: 2, Stride: 2}
	if p.OutputElemsPerSample() != 8*8*8 {
		t.Fatalf("pool output %d", p.OutputElemsPerSample())
	}
}

func TestValidatePanicsOnNamelessOp(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("nameless op must panic at emission")
		}
	}()
	(&Op{Kind: OpDense, In: 2, Out: 2, Rows: 1}).Forward(1, StyleTF)
}

func TestLayerNormEmissionDiffersFromBatchNorm(t *testing.T) {
	ln := &Op{Name: "ln", Kind: OpLayerNorm, Channels: 8, Elems: 64}
	bn := &Op{Name: "bn", Kind: OpBatchNorm, Channels: 8, H: 4, W: 2}
	lk := ln.Forward(2, StyleTF)[0]
	bk := bn.Forward(2, StyleTF)[0]
	if lk.Name == bk.Name {
		t.Fatal("layernorm and batchnorm should emit distinct kernels")
	}
	if lk.Class != BatchNorm || bk.Class != BatchNorm {
		t.Fatal("both normalizations share the memory-bound class")
	}
}

func TestAttentionBackwardScalesGEMMs(t *testing.T) {
	a := &Op{Name: "attn", Kind: OpAttention, Dim: 64, Heads: 4, SeqLen: 8}
	f := TotalFLOPs(a.Forward(4, StyleTF))
	b := TotalFLOPs(a.Backward(4, StyleTF))
	if b < 1.5*f || b > 2.5*f {
		t.Fatalf("attention backward/forward FLOP ratio %.2f, want ~2", b/f)
	}
}
