package kernels

import (
	"strings"
	"testing"

	"tbd/internal/device"
)

func convOp() *Op {
	return &Op{Name: "conv1", Kind: OpConv2D, InC: 64, OutC: 64, H: 56, W: 56, K: 3, Stride: 1, Pad: 1}
}

func lstmOp() *Op {
	return &Op{Name: "lstm1", Kind: OpLSTMSeq, T: 25, Input: 512, Hidden: 512}
}

func attnOp() *Op {
	return &Op{Name: "attn1", Kind: OpAttention, Dim: 512, Heads: 8, SeqLen: 25}
}

func TestConvGeometry(t *testing.T) {
	o := convOp()
	if o.OutH() != 56 || o.OutW() != 56 {
		t.Fatalf("same-pad conv output %dx%d", o.OutH(), o.OutW())
	}
	s := &Op{Kind: OpConv2D, InC: 3, OutC: 64, H: 224, W: 224, K: 7, Stride: 2, Pad: 3}
	if s.OutH() != 112 {
		t.Fatalf("strided conv output %d, want 112", s.OutH())
	}
}

func TestConvFLOPsFormula(t *testing.T) {
	o := convOp()
	ks := o.Forward(1, StyleTF)
	// 2 * K*K*InC * OutC * OH*OW = 2*9*64*64*56*56.
	want := 2.0 * 9 * 64 * 64 * 56 * 56
	if ks[0].FLOPs != want {
		t.Fatalf("conv FLOPs = %g, want %g", ks[0].FLOPs, want)
	}
	// Batch scales FLOPs linearly.
	ks32 := o.Forward(32, StyleTF)
	if ks32[0].FLOPs != 32*want {
		t.Fatalf("conv FLOPs don't scale with batch")
	}
}

func TestParamElems(t *testing.T) {
	o := convOp()
	if got := o.ParamElems(); got != 64*64*9+64 {
		t.Fatalf("conv params = %d", got)
	}
	l := lstmOp()
	if got := l.ParamElems(); got != 4*(512*512+512*512+512) {
		t.Fatalf("lstm params = %d", got)
	}
	d := &Op{Name: "fc", Kind: OpDense, In: 2048, Out: 1000, Rows: 1}
	if got := d.ParamElems(); got != 2048*1000+1000 {
		t.Fatalf("dense params = %d", got)
	}
	a := attnOp()
	if got := a.ParamElems(); got != 4*512*512 {
		t.Fatalf("attention params = %d", got)
	}
}

func TestDurationPositiveAndMonotone(t *testing.T) {
	small := Kernel{Name: "k", Class: GEMM, FLOPs: 1e6, Bytes: 1e5}
	big := Kernel{Name: "k", Class: GEMM, FLOPs: 1e9, Bytes: 1e8}
	ds := small.Duration(device.QuadroP4000)
	db := big.Duration(device.QuadroP4000)
	if ds <= 0 || db <= 0 {
		t.Fatal("non-positive durations")
	}
	if db <= ds {
		t.Fatal("duration not monotone in work")
	}
	// Launch latency is a floor.
	tiny := Kernel{Name: "k", Class: Pointwise, FLOPs: 1, Bytes: 4}
	if tiny.Duration(device.QuadroP4000) < device.QuadroP4000.LaunchLatencySec {
		t.Fatal("duration below launch latency")
	}
}

func TestOccupancyLowerOnBiggerGPU(t *testing.T) {
	// The same medium kernel fills less of the Titan Xp than of the P4000
	// — the mechanism behind the paper's Observation 10.
	k := Kernel{Name: "k", Class: GEMM, FLOPs: 1e8, Bytes: 1e6}
	if k.Occupancy(device.TitanXp) >= k.Occupancy(device.QuadroP4000) {
		t.Fatal("occupancy should drop on the larger GPU")
	}
}

func TestBatchNormLowerUtilizationThanConv(t *testing.T) {
	// Table 5/6: bn kernels run well below the conv/GEMM average.
	conv := convOp().Forward(32, StyleTF)[0]
	bn := (&Op{Name: "bn", Kind: OpBatchNorm, Channels: 64, H: 56, W: 56}).Forward(32, StyleTF)[0]
	cu := conv.FP32Utilization(device.QuadroP4000)
	bu := bn.FP32Utilization(device.QuadroP4000)
	if bu >= cu {
		t.Fatalf("bn util %.3f >= conv util %.3f", bu, cu)
	}
	if bu > 0.25 {
		t.Fatalf("bn util %.3f, want memory-bound (< 0.25)", bu)
	}
	if cu < 0.3 {
		t.Fatalf("conv util %.3f, want compute-dense (> 0.3)", cu)
	}
}

func TestLSTMEmitsManySmallKernels(t *testing.T) {
	lk := lstmOp().Forward(32, StyleTF)
	ak := attnOp().Forward(32, StyleTF)
	if len(lk) != 25*3 {
		t.Fatalf("lstm fwd kernels = %d, want 75", len(lk))
	}
	if len(ak) >= len(lk)/5 {
		t.Fatalf("attention should use far fewer kernels: %d vs %d", len(ak), len(lk))
	}
	// Mean kernel size: LSTM much smaller than attention.
	mean := func(ks []Kernel) float64 {
		var s float64
		for _, k := range ks {
			s += k.FLOPs
		}
		return s / float64(len(ks))
	}
	if mean(lk) >= mean(ak) {
		t.Fatal("lstm kernels should be smaller on average than attention kernels")
	}
}

func TestBackwardHeavierThanForward(t *testing.T) {
	for _, o := range []*Op{convOp(), lstmOp(), attnOp(),
		{Name: "fc", Kind: OpDense, In: 512, Out: 512, Rows: 1}} {
		f := TotalFLOPs(o.Forward(16, StyleTF))
		b := TotalFLOPs(o.Backward(16, StyleTF))
		if b <= f {
			t.Fatalf("%s: backward FLOPs %.3g <= forward %.3g", o.Name, b, f)
		}
	}
}

func TestIterationKernelsStructure(t *testing.T) {
	ops := []*Op{
		convOp(),
		{Name: "bn", Kind: OpBatchNorm, Channels: 64, H: 56, W: 56},
		{Name: "relu", Kind: OpActivation, Channels: 64, H: 56, W: 56},
	}
	ks := IterationKernels(ops, 8, StyleTF)
	if len(ks) == 0 {
		t.Fatal("no kernels emitted")
	}
	// Must contain forward conv, backward conv (dgrad+wgrad) and an
	// optimizer kernel.
	var hasFw, hasDgrad, hasWgrad, hasOpt bool
	for _, k := range ks {
		switch {
		case strings.Contains(k.Name, "implicit_convolve"):
			hasFw = true
		case strings.Contains(k.Name, "dgrad"):
			hasDgrad = true
		case strings.Contains(k.Name, "wgrad"):
			hasWgrad = true
		case strings.Contains(k.Name, "ApplyGradientDescent"):
			hasOpt = true
		}
	}
	if !hasFw || !hasDgrad || !hasWgrad || !hasOpt {
		t.Fatalf("kernel stream missing phases: fw=%v dgrad=%v wgrad=%v opt=%v", hasFw, hasDgrad, hasWgrad, hasOpt)
	}
}

func TestFrameworkNameStyles(t *testing.T) {
	o := &Op{Name: "fc", Kind: OpDense, In: 8, Out: 8, Rows: 1}
	tf := o.Forward(1, StyleTF)
	mx := o.Forward(1, StyleMXNet)
	if tf[1].Name == mx[1].Name {
		t.Fatal("TF and MXNet pointwise kernels should be named differently")
	}
	if !strings.Contains(tf[1].Name, "tensorflow::") {
		t.Fatalf("TF bias kernel name = %q", tf[1].Name)
	}
	if !strings.Contains(mx[1].Name, "mxnet") {
		t.Fatalf("MXNet kernel name = %q", mx[1].Name)
	}
	// Table 5/6 batch-norm names must match the paper.
	bn := &Op{Name: "bn", Kind: OpBatchNorm, Channels: 4, H: 2, W: 2}
	if bn.Forward(1, StyleTF)[0].Name != "cudnn::detail::bn_fw_tr_1C11_kernel_new" {
		t.Fatal("bn forward kernel name drifted from the paper")
	}
	if bn.Backward(1, StyleTF)[0].Name != "cudnn::detail::bn_bw_1C11_kernel_new" {
		t.Fatal("bn backward kernel name drifted from the paper")
	}
}

func TestStashElemsScaleWithDepthNotBatch(t *testing.T) {
	o := convOp()
	// Per-sample stash is batch-independent; total feature-map memory is
	// stash * batch, giving the linear scaling of Figure 9.
	if o.StashElemsPerSample() != int64(64*56*56) {
		t.Fatalf("conv stash = %d", o.StashElemsPerSample())
	}
	l := lstmOp()
	if l.StashElemsPerSample() != int64(25*(512+12*512)) {
		t.Fatalf("lstm stash = %d", l.StashElemsPerSample())
	}
}

func TestWorkspaceOnlyForConvAndAttention(t *testing.T) {
	if convOp().WorkspaceBytes(4) == 0 {
		t.Fatal("conv must need workspace")
	}
	if attnOp().WorkspaceBytes(4) == 0 {
		t.Fatal("attention must need workspace")
	}
	d := &Op{Name: "fc", Kind: OpDense, In: 8, Out: 8, Rows: 1}
	if d.WorkspaceBytes(4) != 0 {
		t.Fatal("dense must not need workspace")
	}
}

func TestFP32UtilizationBounded(t *testing.T) {
	for _, k := range IterationKernels([]*Op{convOp(), lstmOp(), attnOp()}, 16, StyleMXNet) {
		u := k.FP32Utilization(device.QuadroP4000)
		if u < 0 || u > 1 {
			t.Fatalf("kernel %s utilization %g out of [0,1]", k.Name, u)
		}
	}
}

func TestKindAndClassStrings(t *testing.T) {
	if OpLSTMSeq.String() != "lstm" || BatchNorm.String() != "batchnorm" {
		t.Fatal("stringers drifted")
	}
	if Kind(999).String() == "" || Class(999).String() == "" {
		t.Fatal("unknown enums must still print")
	}
}

// FP32Utilization returns the fraction of g's peak FP32 throughput this
// kernel achieves while resident (Equation 2 of the paper, per kernel).
func (k Kernel) FP32Utilization(g *device.GPU) float64 {
	d := k.Duration(g)
	if d <= 0 {
		return 0
	}
	u := k.FLOPs / (g.PeakFLOPS() * d)
	if u > 1 {
		u = 1
	}
	return u
}
