package core

import (
	"math"
	"strings"
	"testing"

	"tbd/internal/device"
	"tbd/internal/kernels"
	"tbd/internal/models"
	"tbd/internal/sim"
)

func TestAnalyzeEndToEnd(t *testing.T) {
	a, err := AnalyzeEndToEnd("ResNet-50", "MXNet", "", 32)
	if err != nil {
		t.Fatal(err)
	}
	if a.Implementation != "ResNet-50" || a.GPU != "Quadro P4000" {
		t.Fatalf("metadata wrong: %+v", a)
	}
	// Sampling methodology engaged: warm-up detected and excluded.
	if a.WarmupIterations == 0 {
		t.Fatal("warm-up phase not detected")
	}
	if a.SampledIterations == 0 || a.SampledIterations > 200 {
		t.Fatalf("sample window %d", a.SampledIterations)
	}
	if a.Throughput <= 0 || a.GPUUtil <= 0 || a.FP32Util <= 0 || a.CPUUtil <= 0 {
		t.Fatalf("degenerate metrics: %+v", a)
	}
	// Merged views present and consistent.
	if a.Phases.BackwardSec <= a.Phases.ForwardSec {
		t.Fatal("phase breakdown missing or wrong")
	}
	if len(a.TopKernels) != 5 || len(a.LowUtilKernels) != 5 {
		t.Fatal("kernel views incomplete")
	}
	if a.KernelsPerIteration <= 0 || a.GapTimeSec < 0 {
		t.Fatal("kernel accounting broken")
	}
	if a.Memory.FeatureMaps <= 0 || !a.FitsP4000 {
		t.Fatalf("memory view wrong: %s fits=%v", a.Memory, a.FitsP4000)
	}
}

func TestAnalyzeLSTMShowsGaps(t *testing.T) {
	cnn, err := AnalyzeEndToEnd("ResNet-50", "TensorFlow", "", 32)
	if err != nil {
		t.Fatal(err)
	}
	lstm, err := AnalyzeEndToEnd("Seq2Seq", "TensorFlow", "", 32)
	if err != nil {
		t.Fatal(err)
	}
	// Per unit of busy time, the LSTM pipeline idles far more.
	cnnRel := cnn.GapTimeSec / cnn.Phases.TotalSec()
	lstmRel := lstm.GapTimeSec / lstm.Phases.TotalSec()
	if lstmRel <= cnnRel {
		t.Fatalf("LSTM relative gap %.3f should exceed CNN %.3f", lstmRel, cnnRel)
	}
}

// TestRNNSyncPointsStrippedSpeedup pins the RNN-fusion ablation behind
// Observation 5: the Seq2Seq/TensorFlow kernel stream at batch 64 with its
// host sync points stripped runs ≈ 1.3× faster, the gap a fused cuDNN RNN
// path closes.
func TestRNNSyncPointsStrippedSpeedup(t *testing.T) {
	m, err := models.Lookup("Seq2Seq")
	if err != nil {
		t.Fatal(err)
	}
	cfg := sim.Config{GPU: device.QuadroP4000, LaunchOverheadSec: 8e-6, SyncOverheadSec: 150e-6, IterOverheadSec: 5e-3}
	stream := kernels.IterationKernels(m.Ops(), 64, kernels.StyleTF)
	synced := sim.Replay(stream, 64, cfg, nil)
	for i := range stream {
		stream[i].Sync = false
	}
	fused := sim.Replay(stream, 64, cfg, nil)
	if speedup := fused.Throughput / synced.Throughput; math.Abs(speedup-1.326) > 0.005 {
		t.Fatalf("stripping sync points speeds Seq2Seq up %.3fx, want 1.326x", speedup)
	}
}

func TestAnalyzeValidates(t *testing.T) {
	if _, err := AnalyzeEndToEnd("nope", "MXNet", "", 8); err == nil {
		t.Fatal("unknown model must fail")
	}
	if _, err := AnalyzeEndToEnd("Transformer", "CNTK", "", 8); err == nil {
		t.Fatal("unsupported framework must fail")
	}
	if _, err := AnalyzeEndToEnd("ResNet-50", "MXNet", "H100", 8); err == nil {
		t.Fatal("unknown GPU must fail")
	}
}

func TestComparabilityAcrossFrameworks(t *testing.T) {
	// §3.4.1: every multi-framework benchmark must define the same
	// network on each framework.
	for _, name := range []string{"ResNet-50", "Inception-v3", "Seq2Seq", "Faster R-CNN"} {
		c, err := CheckComparability(name)
		if err != nil {
			t.Fatal(err)
		}
		if !c.Comparable {
			t.Fatalf("%s implementations diverge: %s", name, c.Detail)
		}
		if c.ParamElems == 0 || c.FLOPsPerSample == 0 {
			t.Fatalf("%s: empty comparability stats", name)
		}
		if !strings.Contains(c.Detail, "share the same network") {
			t.Fatalf("detail = %q", c.Detail)
		}
	}
}

func TestWorkspaceTradeoff(t *testing.T) {
	// Observation 12 quantified: a larger workspace budget buys faster
	// convolution algorithms and hence throughput.
	budgets := []int64{8 << 20, 64 << 20, 512 << 20, 4 << 30}
	rows, err := WorkspaceTradeoff("ResNet-50", "MXNet", 32, budgets)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(budgets) {
		t.Fatalf("got %d rows", len(rows))
	}
	for i, r := range rows {
		if r.WorkspaceBytes > r.BudgetBytes {
			t.Fatalf("budget %d: arena %d exceeds budget", r.BudgetBytes, r.WorkspaceBytes)
		}
		if i > 0 && r.Throughput < rows[i-1].Throughput*0.999 {
			t.Fatalf("throughput decreased with budget: %.1f -> %.1f", rows[i-1].Throughput, r.Throughput)
		}
	}
	first, last := rows[0], rows[len(rows)-1]
	if last.Throughput <= first.Throughput*1.05 {
		t.Fatalf("big workspace should clearly beat zero workspace: %.1f vs %.1f", last.Throughput, first.Throughput)
	}
	if first.WinogradConvs != 0 || first.ImplicitConvs == 0 {
		t.Fatalf("tight budget should force implicit-GEMM: %+v", first)
	}
	if last.WinogradConvs == 0 {
		t.Fatalf("large budget should enable Winograd: %+v", last)
	}
	// The model's shared op cache must not have been mutated.
	m, _ := models.Lookup("ResNet-50")
	for _, o := range m.Ops() {
		if o.Algo != kernels.AlgoPrecompGEMM {
			t.Fatal("WorkspaceTradeoff mutated the shared op graph")
		}
	}
}
