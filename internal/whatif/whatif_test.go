package whatif

import (
	"bytes"
	"math"
	"strings"
	"testing"
	"time"

	"tbd/internal/prof"
)

// mkSpan builds one trace span for synthetic-graph tests.
func mkSpan(id, parent uint64, name, cat string, startUs, durUs, flops float64, byteCount int64) Span {
	return Span{ID: id, Parent: parent, Name: name, Cat: cat, StartUs: startUs, DurUs: durUs, FLOPs: flops, Bytes: byteCount}
}

// mkTrace assembles and finalizes a synthetic trace.
func mkTrace(t *testing.T, meta Meta, wallUs float64, spans ...Span) *Trace {
	t.Helper()
	tr := &Trace{Version: Version, Meta: meta, WallUs: wallUs, Spans: spans}
	if err := tr.Validate(); err != nil {
		t.Fatalf("synthetic trace invalid: %v", err)
	}
	tr.derivePhases()
	return tr
}

// twoStepTrace is a minimal but structurally complete recording: two
// steps, each forward(gemm) + update, under a 1000us wall.
func twoStepTrace(t *testing.T) *Trace {
	return mkTrace(t, Meta{Model: "m", Batch: 32, Parallel: 1, Steps: 2}, 1000,
		mkSpan(1, 0, "step", "phase", 0, 300, 0, 0),
		mkSpan(2, 1, "phase.forward", "phase", 10, 200, 0, 0),
		mkSpan(3, 2, "gemm", "kernel", 20, 150, 3e8, 4e6),
		mkSpan(4, 1, "phase.update", "phase", 220, 50, 0, 0),
		mkSpan(5, 0, "step", "phase", 400, 300, 0, 0),
		mkSpan(6, 5, "phase.forward", "phase", 410, 200, 0, 0),
		mkSpan(7, 6, "gemm", "kernel", 420, 150, 3e8, 4e6),
		mkSpan(8, 5, "phase.update", "phase", 620, 50, 0, 0),
	)
}

func replaySpec(t *testing.T, tr *Trace, spec string) *Prediction {
	t.Helper()
	sc, err := ParseScenario(spec)
	if err != nil {
		t.Fatalf("parse %q: %v", spec, err)
	}
	p, err := Replay(tr, sc)
	if err != nil {
		t.Fatalf("replay %q: %v", spec, err)
	}
	return p
}

func approx(t *testing.T, what string, got, want, tolFrac float64) {
	t.Helper()
	if want == 0 {
		if math.Abs(got) > 1e-9 {
			t.Fatalf("%s = %g, want 0", what, got)
		}
		return
	}
	if math.Abs(got-want)/math.Abs(want) > tolFrac {
		t.Fatalf("%s = %g, want %g (±%.0f%%)", what, got, want, 100*tolFrac)
	}
}

// --- trace construction from the live profiler ---

func TestFromRecordsDerivesEdgesAndPhases(t *testing.T) {
	prof.Enable()
	step := prof.Begin(prof.CatPhase, "step")
	fwd := prof.BeginChild(&step, prof.CatPhase, "phase.forward")
	k := prof.Begin(prof.CatKernel, "gemm")
	k.SetFLOPs(1e6)
	k.End()
	fwd.End()
	upd := prof.BeginChild(&step, prof.CatPhase, "phase.update")
	upd.End()
	step.End()
	prof.Disable()

	tr, err := Capture(Meta{Model: "test"})
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]Span{}
	for _, s := range tr.Spans {
		byName[s.Name] = s
	}
	if len(tr.Spans) != 4 {
		t.Fatalf("got %d spans, want 4", len(tr.Spans))
	}
	if byName["step"].Parent != 0 {
		t.Fatalf("step should be a root, has parent %d", byName["step"].Parent)
	}
	if byName["phase.forward"].Parent != byName["step"].ID {
		t.Fatal("phase.forward must hang off step")
	}
	if byName["gemm"].Parent != byName["phase.forward"].ID {
		t.Fatal("ambient parent edge broken: gemm must hang off phase.forward")
	}
	if byName["gemm"].Phase != "phase.forward" {
		t.Fatalf("gemm phase lineage %q, want phase.forward", byName["gemm"].Phase)
	}
	if byName["phase.update"].Phase != "step" {
		t.Fatalf("phase.update lineage %q, want step", byName["phase.update"].Phase)
	}
}

func TestCaptureRefusesDroppedSpans(t *testing.T) {
	prof.EnableWithMaxRecords(2)
	defer prof.SetMaxRecords(0) // restore the default for later tests
	for i := 0; i < 5; i++ {
		sp := prof.Begin(prof.CatKernel, "k")
		sp.End()
	}
	prof.Disable()
	_, err := Capture(Meta{})
	if err == nil || !strings.Contains(err.Error(), "dropped") {
		t.Fatalf("capture after overflow must fail loudly, got %v", err)
	}
}

func TestValidateRejectsBrokenEdges(t *testing.T) {
	missing := &Trace{Version: Version, Spans: []Span{mkSpan(2, 7, "x", "kernel", 0, 1, 0, 0)}}
	if err := missing.Validate(); err == nil || !strings.Contains(err.Error(), "parent") {
		t.Fatalf("missing parent must fail, got %v", err)
	}
	cycle := &Trace{Version: Version, Spans: []Span{
		mkSpan(1, 2, "a", "kernel", 0, 1, 0, 0),
		mkSpan(2, 1, "b", "kernel", 0, 1, 0, 0),
	}}
	if err := cycle.Validate(); err == nil || !strings.Contains(err.Error(), "cycle") {
		t.Fatalf("cycle must fail, got %v", err)
	}
	dup := &Trace{Version: Version, Spans: []Span{
		mkSpan(1, 0, "a", "kernel", 0, 1, 0, 0),
		mkSpan(1, 0, "b", "kernel", 0, 1, 0, 0),
	}}
	if err := dup.Validate(); err == nil || !strings.Contains(err.Error(), "duplicate") {
		t.Fatalf("duplicate id must fail, got %v", err)
	}
	wrongVer := &Trace{Version: Version + 1}
	if err := wrongVer.Validate(); err == nil || !strings.Contains(err.Error(), "version") {
		t.Fatalf("version mismatch must fail, got %v", err)
	}
}

func TestTraceRoundTrip(t *testing.T) {
	tr := twoStepTrace(t)
	var buf bytes.Buffer
	if err := tr.Write(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Spans) != len(tr.Spans) || back.WallUs != tr.WallUs || back.Meta != tr.Meta {
		t.Fatal("trace did not round-trip")
	}
	if back.Spans[2].Phase != "phase.forward" {
		t.Fatal("phase lineage lost in round trip")
	}
}

func TestMergeRenumbersAcrossRanks(t *testing.T) {
	r0 := mkTrace(t, Meta{Rank: 0, Workers: 2, Strategy: "ring"}, 500,
		mkSpan(1, 0, "step", "phase", 0, 400, 0, 0),
		mkSpan(2, 1, "comm.ring.allreduce", "comm", 100, 100, 0, 1e6),
	)
	r1 := mkTrace(t, Meta{Rank: 1, Workers: 2, Strategy: "ring"}, 600,
		mkSpan(1, 0, "step", "phase", 0, 450, 0, 0),
		mkSpan(2, 1, "comm.ring.allreduce", "comm", 100, 120, 0, 1e6),
	)
	m, err := Merge(r0, r1)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Validate(); err != nil {
		t.Fatalf("merged trace invalid: %v", err)
	}
	if len(m.Spans) != 4 {
		t.Fatalf("got %d spans, want 4", len(m.Spans))
	}
	if m.WallUs != 600 {
		t.Fatalf("cluster wall %g, want slowest rank 600", m.WallUs)
	}
	if len(m.Ranks) != 2 || m.Ranks[1].WallUs != 600 {
		t.Fatal("per-rank wall times lost")
	}
	ranks := map[int]int{}
	for _, s := range m.Spans {
		ranks[s.Rank]++
	}
	if ranks[0] != 2 || ranks[1] != 2 {
		t.Fatalf("rank stamps wrong: %v", ranks)
	}
}

// --- replay semantics ---

func TestReplayBaselineIdentity(t *testing.T) {
	tr := twoStepTrace(t)
	p := replaySpec(t, tr, "")
	approx(t, "wall", p.PredictedWallUs, p.BaselineWallUs, 1e-9)
	approx(t, "step", p.PredictedStepUs, p.BaselineStepUs, 1e-9)
	if p.MemAfter != p.MemBefore {
		t.Fatal("empty scenario must not touch memory")
	}
}

func TestReplaySpeedupScalesSelfTimeOnly(t *testing.T) {
	// A root "copy" span demonstrates 4e6 bytes in 10us, calibrating peak
	// bandwidth to 4e11 B/s. The gemm's memory floor is then 4e6 bytes at
	// that rate = 10us, and only the remaining 140us compute share halves.
	tr := mkTrace(t, Meta{Model: "m", Batch: 32, Parallel: 1, Steps: 2}, 1000,
		mkSpan(1, 0, "step", "phase", 0, 300, 0, 0),
		mkSpan(2, 1, "phase.forward", "phase", 10, 200, 0, 0),
		mkSpan(3, 2, "gemm", "kernel", 20, 150, 3e8, 4e6),
		mkSpan(4, 1, "phase.update", "phase", 220, 50, 0, 0),
		mkSpan(5, 0, "step", "phase", 400, 300, 0, 0),
		mkSpan(6, 5, "phase.forward", "phase", 410, 200, 0, 0),
		mkSpan(7, 6, "gemm", "kernel", 420, 150, 3e8, 4e6),
		mkSpan(8, 5, "phase.update", "phase", 620, 50, 0, 0),
		mkSpan(9, 0, "copy", "kernel", 960, 10, 0, 4e6),
	)
	p := replaySpec(t, tr, "speedup=gemm*:2")
	// Each step: 300 total, gemm 150 -> 10 + 140/2 = 80; the untouched
	// phase residue and update carry over, so step = 300 - 150 + 80.
	approx(t, "step", p.PredictedStepUs, 230, 1e-6)
	// Wall shrinks by exactly the two per-step gemm savings of 70us.
	approx(t, "wall", p.PredictedWallUs, 1000-2*70, 1e-6)
	if p.StepSpeedup() <= 1.30 || p.StepSpeedup() >= 1.31 {
		t.Fatalf("step speedup %.3f, want 300/230", p.StepSpeedup())
	}
}

func TestReplaySpeedupHoldsMemoryFloor(t *testing.T) {
	// In twoStepTrace the gemm is the only byte-attributed span, so peak
	// bandwidth calibrates to the gemm's own byte rate: the span is fully
	// memory-bound under the roofline and a compute speedup buys nothing.
	tr := twoStepTrace(t)
	p := replaySpec(t, tr, "speedup=gemm*:1000")
	approx(t, "step", p.PredictedStepUs, 300, 1e-6)
	approx(t, "wall", p.PredictedWallUs, 1000, 1e-6)
}

func TestReplayKernelModelUsesFLOPs(t *testing.T) {
	tr := twoStepTrace(t)
	// 3e8 FLOPs at 10 GFLOP/s = 30 ms = 30000 us per gemm (a slowdown).
	p := replaySpec(t, tr, "kernelmodel=gemm:10")
	approx(t, "step", p.PredictedStepUs, 300-150+30000, 1e-6)
}

func TestReplayDropRemovesMatchingPaths(t *testing.T) {
	// Forward and backward both run a layer named fc1 over a kernel named
	// gemm, so only the path tells the four spans apart.
	tr := mkTrace(t, Meta{Model: "m", Batch: 32, Parallel: 1, Steps: 1}, 1000,
		mkSpan(1, 0, "step", "phase", 0, 600, 0, 0),
		mkSpan(2, 1, "phase.forward", "phase", 10, 200, 0, 0),
		mkSpan(3, 2, "fc1", "forward", 20, 150, 0, 0),
		mkSpan(4, 3, "gemm", "kernel", 30, 100, 3e8, 0),
		mkSpan(5, 1, "phase.backward", "phase", 220, 350, 0, 0),
		mkSpan(6, 5, "fc1", "backward", 230, 300, 0, 0),
		mkSpan(7, 6, "gemm", "kernel", 240, 100, 3e8, 0),
		mkSpan(8, 6, "gemm.dX", "kernel", 350, 150, 3e8, 0),
	)
	for _, c := range []struct {
		spec         string
		step, gemmUs float64
	}{
		{"drop=step/phase.backward/fc1/gemm.dX", 450, 200},                 // a leaf
		{"drop=step/phase.backward/fc1", 300, 100},                         // a subtree, self time included
		{"drop=step/phase.*/fc1/gemm", 400, 0},                             // '*' stays inside one path element
		{"drop=fc1/gemm,drop=step/*/gemm,drop=gemm.dX", 600, 200},          // no match: a path starts at a root
		{"drop=step/phase.backward/fc1/gemm.dX,speedup=gemm*:2", 350, 100}, // composes, dropped span stays dropped
		{"kernelmodel=gemm*:1,drop=step/phase.backward/fc1/gemm.dX", 600 - 2*100 - 150 + 2*3e5, 6e5},
	} {
		p := replaySpec(t, tr, c.spec)
		approx(t, c.spec+": step", p.PredictedStepUs, c.step, 1e-9)
		approx(t, c.spec+": wall", p.PredictedWallUs, 1000-600+c.step, 1e-9)
		var gemm float64
		for _, d := range p.Kernels {
			if d.Name == "gemm" {
				gemm = d.PredictedUs
			}
		}
		approx(t, c.spec+": gemm rows", gemm, c.gemmUs, 1e-9)
	}
}

func TestReplayBatchScalesComputePhasesOnly(t *testing.T) {
	tr := twoStepTrace(t)
	p := replaySpec(t, tr, "batch=64")
	// forward self (50) and gemm (150) double; update (50) and step
	// residue (50) carry over: 2*(50+150) + 50 + 50 = 500.
	approx(t, "step", p.PredictedStepUs, 500, 1e-6)
	if p.MemAfter.FeatureMaps != 2*p.MemBefore.FeatureMaps {
		t.Log("feature maps were zero in synthetic trace; skipping memory ratio check")
	}
}

func TestReplayParallelScalesParallelKernels(t *testing.T) {
	tr := mkTrace(t, Meta{Batch: 32, Parallel: 1}, 400,
		mkSpan(1, 0, "step", "phase", 0, 400, 0, 0),
		mkSpan(2, 1, "gemm", "kernel", 0, 200, 1e8, 1e6),
		mkSpan(3, 1, "im2col", "kernel", 200, 100, 0, 1e6),
		mkSpan(4, 1, "loss.xent", "kernel", 300, 50, 0, 1e5),
	)
	p := replaySpec(t, tr, "parallel=4")
	// gemm 200->50, im2col 100->25, loss and residue (50+50) unchanged.
	approx(t, "step", p.PredictedStepUs, 50+25+50+50, 1e-6)
}

func TestReplayCommBandwidth(t *testing.T) {
	tr := mkTrace(t, Meta{Workers: 2, Strategy: "ring", Compression: "full", BandwidthMBps: 125}, 20000,
		mkSpan(1, 0, "step", "phase", 0, 12000, 0, 0),
		mkSpan(2, 1, "comm.ring.allreduce", "comm", 1000, 10000, 0, 2e6),
	)
	// Ring share = 1e6 bytes at 125 MB/s = 8000us wire, 2000us overhead.
	// At 10 GbE wire is 800us -> span 2800us, step = 2000 + 2800.
	p := replaySpec(t, tr, "bw=10gbe")
	approx(t, "step", p.PredictedStepUs, 4800, 1e-6)
	// Removing the throttle leaves only overhead.
	p = replaySpec(t, tr, "bw=unlimited")
	approx(t, "step", p.PredictedStepUs, 4000, 1e-6)
	// A slower link grows the wire share.
	p = replaySpec(t, tr, "bw=62.5")
	approx(t, "step", p.PredictedStepUs, 2000+2000+16000, 1e-6)
}

func TestReplayPSCommSharesServerNIC(t *testing.T) {
	// A sync ps roundtrip serializes every rank through the server's one
	// NIC, so the wire share of a 1e6-byte span is workers*1e6 = 4e6
	// bytes: 32000us at 125 MB/s, leaving 8000us overhead. At 10 GbE the
	// wire shrinks tenfold to 3200us.
	tr := mkTrace(t, Meta{Workers: 4, Strategy: "ps-sync", Compression: "full", BandwidthMBps: 125}, 60000,
		mkSpan(1, 0, "step", "phase", 0, 50000, 0, 0),
		mkSpan(2, 1, "comm.ps.roundtrip", "comm", 1000, 40000, 0, 1e6),
	)
	p := replaySpec(t, tr, "bw=10gbe")
	approx(t, "step", p.PredictedStepUs, 50000-40000+8000+3200, 1e-6)
}

func TestReplayCompressionBlendsWireFormat(t *testing.T) {
	tr := mkTrace(t, Meta{Workers: 2, Strategy: "ring", Compression: "full", BandwidthMBps: 125}, 20000,
		mkSpan(1, 0, "step", "phase", 0, 12000, 0, 0),
		mkSpan(2, 1, "comm.ring.allreduce", "comm", 1000, 10000, 0, 2e6),
	)
	// fp16 push + fp32 return: (2+4)/(4+4) = 0.75 of the wire volume.
	p := replaySpec(t, tr, "compress=fp16")
	approx(t, "step", p.PredictedStepUs, 2000+2000+0.75*8000, 1e-6)
	// int8: (1+4)/(4+4) = 0.625.
	p = replaySpec(t, tr, "compress=int8")
	approx(t, "step", p.PredictedStepUs, 2000+2000+0.625*8000, 1e-6)
}

func TestReplayFP16AndMemory(t *testing.T) {
	tr := twoStepTrace(t)
	tr.Mem = prof.MemWatermark{Weights: 1000, WeightGradients: 1000, FeatureMaps: 4000, Workspace: 2000, Dynamic: 500, PeakTotal: 8500}
	p := replaySpec(t, tr, "fp16")
	if p.MemAfter.Weights != 500 || p.MemAfter.Workspace != 1000 {
		t.Fatalf("fp16 must halve weights and workspace: %+v", p.MemAfter)
	}
	if p.MemAfter.PeakTotal != 8500-500-1000 {
		t.Fatalf("peak total %d, want shifted by the halved categories", p.MemAfter.PeakTotal)
	}
	// The gemm spans carry bytes, so fp16 must speed them up, but never
	// below half (the all-memory-bound limit).
	if p.PredictedStepUs >= p.BaselineStepUs {
		t.Fatal("fp16 must shrink memory-bound kernel time")
	}
	if p.PredictedStepUs < p.BaselineStepUs/2 {
		t.Fatal("fp16 cannot beat the 2x bandwidth bound")
	}
}

func TestReplayOffloadFreesMemoryAndChargesPCIe(t *testing.T) {
	tr := twoStepTrace(t)
	tr.Mem = prof.MemWatermark{Weights: 1 << 20, FeatureMaps: 64 << 20, PeakTotal: 65 << 20}
	p := replaySpec(t, tr, "offload=33mb")
	if p.MemAfter.PeakTotal > 33<<20 {
		t.Fatalf("offload left peak at %d, want <= 33 MB", p.MemAfter.PeakTotal)
	}
	if p.MemAfter.FeatureMaps >= tr.Mem.FeatureMaps {
		t.Fatal("offload must come out of feature maps")
	}
	if p.PredictedStepUs <= p.BaselineStepUs {
		t.Fatal("offload must charge PCIe transfer time to the step")
	}
}

func TestReplayUnfusedEpilogueAddsMemoryPasses(t *testing.T) {
	tr := mkTrace(t, Meta{Batch: 32}, 400,
		mkSpan(1, 0, "step", "phase", 0, 300, 0, 0),
		mkSpan(2, 1, "gemm.bias_act", "kernel", 0, 200, 1e8, 12e6),
	)
	p := replaySpec(t, tr, "fused=off")
	// Calibrated peak BW = 12e6 B / 200us = 6e10 B/s. Epilogue adds
	// 4*(12e6/3)/6e10 s ~= 266.7us.
	approx(t, "step", p.PredictedStepUs, 300+266.67, 1e-3)
	// fused=on on an already-fused trace is a no-op with a note.
	p = replaySpec(t, tr, "fused=on")
	approx(t, "step", p.PredictedStepUs, 300, 1e-9)
	if len(p.Notes) == 0 {
		t.Fatal("fused=on on a fused trace should note the no-op")
	}
}

func TestReplayMultiRankWallIsSlowestRank(t *testing.T) {
	r0 := mkTrace(t, Meta{Rank: 0, Workers: 2, Strategy: "ring", Compression: "full", BandwidthMBps: 125}, 10000,
		mkSpan(1, 0, "step", "phase", 0, 9000, 0, 0),
		mkSpan(2, 1, "comm.ring.allreduce", "comm", 0, 8000, 0, 1e6),
	)
	r1 := mkTrace(t, Meta{Rank: 1, Workers: 2, Strategy: "ring", Compression: "full", BandwidthMBps: 125}, 11000,
		mkSpan(1, 0, "step", "phase", 0, 9500, 0, 0),
		mkSpan(2, 1, "comm.ring.allreduce", "comm", 0, 8500, 0, 1e6),
	)
	m, err := Merge(r0, r1)
	if err != nil {
		t.Fatal(err)
	}
	p := replaySpec(t, m, "bw=unlimited")
	// Rank 0: wall 10000 - (8000 - 4000 overhead) = 6000.
	// Rank 1: wall 11000 - (8500 - 4500 overhead) = 7000. Cluster = max.
	approx(t, "wall", p.PredictedWallUs, 7000, 1e-6)
	if p.Steps != 2 {
		t.Fatalf("steps %d, want one per rank", p.Steps)
	}
}

// --- scenario parsing ---

func TestParseScenarioRejectsBadSpecs(t *testing.T) {
	bad := []string{
		"speedup=gemm",    // missing factor
		"speedup=gemm:0",  // non-positive
		"speedup=gemm:-1", // negative
		"kernelmodel=x",   // missing rate
		"parallel=0",      // non-positive
		"batch=-4",        // negative
		"fp16=yes",        // flag takes no value
		"fused=maybe",     // not on/off
		"bw=fast",         // unknown alias
		"compress=zip",    // unknown encoding
		"offload=lots",    // not a size
		"turbo=1",         // unknown clause
		"speedup=[gemm:2", // malformed glob
		"drop",            // no path
		"drop=",           // empty path
		"drop=step/[x",    // malformed glob
	}
	for _, spec := range bad {
		if _, err := ParseScenario(spec); err == nil {
			t.Errorf("ParseScenario(%q) accepted a bad spec", spec)
		}
	}
}

func TestParseScenarioComposes(t *testing.T) {
	sc, err := ParseScenario("speedup=gemm*:2.5, batch=64, fp16, bw=1gbe, compress=int8, offload=0.5gb, parallel=8, fused=off, kernelmodel=conv*:50, drop=step/*/gemm")
	if err != nil {
		t.Fatal(err)
	}
	if len(sc.Speedups) != 1 || sc.Speedups[0].Factor != 2.5 {
		t.Fatal("speedup clause lost")
	}
	if sc.Batch != 64 || !sc.FP16 || sc.BandwidthMBps != 125 || sc.Compression != "int8" || sc.Parallel != 8 {
		t.Fatalf("clauses lost: %+v", sc)
	}
	if sc.OffloadTargetBytes != 1<<29 {
		t.Fatalf("offload target %d, want 0.5gb", sc.OffloadTargetBytes)
	}
	if sc.Fused == nil || *sc.Fused {
		t.Fatal("fused=off lost")
	}
	if len(sc.KernelModels) != 1 || sc.KernelModels[0].Glob != "conv*" {
		t.Fatal("kernelmodel clause lost")
	}
	if len(sc.Drops) != 1 || sc.Drops[0] != "step/*/gemm" {
		t.Fatalf("drop clause lost: %v", sc.Drops)
	}
	if len(sc.Describe()) != 10 {
		t.Fatalf("Describe listed %d transforms, want 10: %v", len(sc.Describe()), sc.Describe())
	}
}

// --- recording fidelity ---

// TestRecordingPreservesTrajectory guards the "recorded trajectories are
// bit-identical to unprofiled runs" contract at the span layer: spans
// only observe, so enabling capture must not perturb instrumented
// results. (The end-to-end twin check lives in the cmd tests.)
func TestRecordingPreservesTrajectory(t *testing.T) {
	work := func() float64 {
		acc := 0.0
		for i := 0; i < 1000; i++ {
			sp := prof.Begin(prof.CatKernel, "gemm")
			sp.SetFLOPs(float64(i))
			acc += math.Sqrt(float64(i))
			sp.End()
		}
		return acc
	}
	prof.Disable()
	plain := work()
	prof.Enable()
	profiled := work()
	prof.Disable()
	if plain != profiled {
		t.Fatalf("profiling changed the computation: %v vs %v", plain, profiled)
	}
}

func TestFromRecordsRejectsEmpty(t *testing.T) {
	if _, err := FromRecords(nil, time.Second, prof.MemWatermark{}, Meta{}); err == nil {
		t.Fatal("empty record set must fail")
	}
}
