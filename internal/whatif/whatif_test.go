package whatif

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"
	"time"

	"tbd/internal/prof"
)

// mkSpan builds one span record for synthetic-graph tests, times in µs.
func mkSpan(id, parent uint64, name, cat string, startUs, durUs, flops float64, byteCount int64) prof.Record {
	cats := map[string]prof.Cat{"kernel": prof.CatKernel, "forward": prof.CatForward, "backward": prof.CatBackward,
		"phase": prof.CatPhase, "optim": prof.CatOptim, "comm": prof.CatComm}
	return prof.Record{ID: id, Parent: parent, Name: name, Cat: cats[cat], Start: usDur(startUs), Dur: usDur(durUs), FLOPs: flops, Bytes: byteCount}
}

func usDur(us float64) time.Duration { return time.Duration(math.Round(us * 1e3)) }

// mkTrace assembles a synthetic one-rank trace and checks its edges.
func mkTrace(t *testing.T, meta prof.Meta, wallUs float64, spans ...prof.Record) *prof.Trace {
	t.Helper()
	tr := &prof.Trace{Meta: meta, Ranks: []prof.Capture{{Rank: meta.Rank, Wall: usDur(wallUs), Records: spans}}}
	if _, err := tr.Trees(); err != nil {
		t.Fatalf("synthetic trace invalid: %v", err)
	}
	return tr
}

// twoStepTrace is a minimal but structurally complete recording: two
// steps, each forward(gemm) + update, under a 1000us wall.
func twoStepTrace(t *testing.T) *prof.Trace {
	return mkTrace(t, prof.Meta{Model: "m", Batch: 32, Parallel: 1, Steps: 2}, 1000,
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

func replaySpec(t *testing.T, tr *prof.Trace, spec string) *Prediction {
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

// TestFromRecordsDerivesEdgesAndPhases captures real profiler records and
// checks the tree replay derives from them: parent edges, phase lineage
// and span paths.
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

	trees, err := prof.Current(prof.Meta{Model: "test"}).Trees()
	if err != nil {
		t.Fatal(err)
	}
	nodes := trees[0].Nodes
	if len(nodes) != 4 {
		t.Fatalf("got %d spans, want 4", len(nodes))
	}
	// Pre-order: step, phase.forward, gemm, phase.update.
	want := []struct {
		name, phase string
		up          int
	}{{"step", "", -1}, {"phase.forward", "step", 0}, {"gemm", "phase.forward", 1}, {"phase.update", "step", 0}}
	for i, w := range want {
		if n := nodes[i]; n.Name != w.name || n.Phase != w.phase || n.Up != w.up {
			t.Fatalf("node %d = %s (phase %q, up %d), want %s (phase %q, up %d)", i, n.Name, n.Phase, n.Up, w.name, w.phase, w.up)
		}
	}
	if got := trees[0].Path(2); got != "step/phase.forward/gemm" {
		t.Fatalf("gemm path %q", got)
	}
}

func TestReplayRefusesDroppedSpans(t *testing.T) {
	prof.EnableWithMaxRecords(2)
	defer prof.SetMaxRecords(0) // restore the default for later tests
	for i := 0; i < 5; i++ {
		sp := prof.Begin(prof.CatKernel, "k")
		sp.End()
	}
	prof.Disable()
	tr := prof.Current(prof.Meta{})
	if tr.Dropped != 3 {
		t.Fatalf("dropped = %d, want 3", tr.Dropped)
	}
	sc, _ := ParseScenario("")
	_, err := Replay(tr, sc)
	if !errors.Is(err, prof.ErrTraceDropped) || !strings.Contains(err.Error(), "3 fell past") {
		t.Fatalf("replay of a truncated capture must name the drop count, got %v", err)
	}
}

func TestValidateRejectsBrokenEdges(t *testing.T) {
	for _, c := range []struct {
		name  string
		spans []prof.Record
		want  error
	}{
		{"missing parent", []prof.Record{mkSpan(2, 7, "x", "kernel", 0, 1, 0, 0)}, prof.ErrMissingParent},
		{"cycle", []prof.Record{mkSpan(1, 2, "a", "kernel", 0, 1, 0, 0), mkSpan(2, 1, "b", "kernel", 0, 1, 0, 0)}, prof.ErrCycle},
		{"duplicate", []prof.Record{mkSpan(1, 0, "a", "kernel", 0, 1, 0, 0), mkSpan(1, 0, "b", "kernel", 0, 1, 0, 0)}, prof.ErrDuplicateSpan},
	} {
		tr := &prof.Trace{Ranks: []prof.Capture{{Wall: time.Millisecond, Records: c.spans}}}
		sc, _ := ParseScenario("")
		if _, err := Replay(tr, sc); !errors.Is(err, c.want) {
			t.Errorf("%s: replay error %v, want %v", c.name, err, c.want)
		}
	}
}

// TestReplayOfAReadTraceBuildsNoTree: ReadTrace keeps the span trees it
// built to check the file, so a replay of a read trace allocates exactly
// one tree build less than a replay of the same spans never read, and
// asking a read trace for its trees allocates nothing.
//
// Each count is the fewest of ten one-run windows. Under the race
// detector sync.Pool drops a quarter of what is put back, so the
// fmt.Sprintf in the scenario's Describe, which Replay calls, now and
// then finds fmt's printer pool empty and allocates a printer and its
// buffer: a window reads the true count or more, never fewer.
func TestReplayOfAReadTraceBuildsNoTree(t *testing.T) {
	var buf bytes.Buffer
	if err := twoStepTrace(t).Write(&buf); err != nil {
		t.Fatal(err)
	}
	read, err := prof.ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	unread := &prof.Trace{Meta: read.Meta, Mem: read.Mem, Ranks: read.Ranks}
	sc, err := ParseScenario("speedup=gemm*:2")
	if err != nil {
		t.Fatal(err)
	}
	allocs := func(f func() error) float64 {
		n := math.Inf(1)
		for range 10 {
			n = min(n, testing.AllocsPerRun(1, func() {
				if err := f(); err != nil {
					t.Fatal(err)
				}
			}))
		}
		return n
	}
	build := allocs(func() error { _, err := unread.Trees(); return err })
	kept := allocs(func() error { _, err := read.Trees(); return err })
	fresh := allocs(func() error { _, err := Replay(unread, sc); return err })
	reused := allocs(func() error { _, err := Replay(read, sc); return err })
	if kept != 0 || build == 0 || fresh-reused != build {
		t.Fatalf("allocations: building the trees %v, a read trace's trees %v, replaying unread %v and read %v", build, kept, fresh, reused)
	}
}

func TestTraceRoundTrip(t *testing.T) {
	tr := twoStepTrace(t)
	var buf bytes.Buffer
	if err := tr.Write(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := prof.ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	// What the file holds; a read trace also keeps the trees it built.
	if back.Meta != tr.Meta || back.Mem != tr.Mem || back.Dropped != tr.Dropped || !reflect.DeepEqual(back.Ranks, tr.Ranks) {
		t.Fatalf("trace did not round-trip:\n got %+v\nwant %+v", back, tr)
	}
	want := replaySpec(t, tr, "speedup=gemm*:2")
	if got := replaySpec(t, back, "speedup=gemm*:2"); !reflect.DeepEqual(got, want) {
		t.Fatal("replay of the round-tripped trace differs")
	}
}

func TestMergeKeysRanksByPID(t *testing.T) {
	r0 := mkTrace(t, prof.Meta{Rank: 0, Workers: 2, Strategy: "ring"}, 500,
		mkSpan(1, 0, "step", "phase", 0, 400, 0, 0),
		mkSpan(2, 1, "comm.ring.allreduce", "comm", 100, 100, 0, 1e6),
	)
	r1 := mkTrace(t, prof.Meta{Rank: 1, Workers: 2, Strategy: "ring"}, 600,
		mkSpan(1, 0, "step", "phase", 0, 450, 0, 0),
		mkSpan(2, 1, "comm.ring.allreduce", "comm", 100, 120, 0, 1e6),
	)
	m, err := prof.Merge(r0, r1)
	if err != nil {
		t.Fatal(err)
	}
	// Both ranks keep span IDs 1 and 2: the rank tells them apart.
	if _, err := m.Trees(); err != nil {
		t.Fatalf("merged trace invalid: %v", err)
	}
	if m.Spans() != 4 || len(m.Ranks) != 2 || m.Ranks[1].Rank != 1 {
		t.Fatalf("got %d spans over %d ranks, want 4 over ranks 0 and 1", m.Spans(), len(m.Ranks))
	}
	if m.Wall() != 600*time.Microsecond || m.Ranks[0].Wall != 500*time.Microsecond {
		t.Fatalf("cluster wall %v, want slowest rank 600µs; rank 0 %v", m.Wall(), m.Ranks[0].Wall)
	}
	if m.Meta.Rank != 0 {
		t.Fatal("merged meta keeps a rank")
	}
	var buf bytes.Buffer
	if err := m.Write(&buf); err != nil {
		t.Fatal(err)
	}
	if strings.Count(buf.String(), `"pid":1,"tid":0,"args"`) != 2 {
		t.Fatalf("rank 1's spans are not on pid 1:\n%s", buf.String())
	}
	if twice, err := prof.Merge(r0, r0); err != nil {
		t.Fatal(err)
	} else if _, err := twice.Trees(); err == nil {
		t.Fatal("a trace with one rank twice must not build")
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
	tr := mkTrace(t, prof.Meta{Model: "m", Batch: 32, Parallel: 1, Steps: 2}, 1000,
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
	tr := mkTrace(t, prof.Meta{Model: "m", Batch: 32, Parallel: 1, Steps: 1}, 1000,
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
	tr := mkTrace(t, prof.Meta{Batch: 32, Parallel: 1}, 400,
		mkSpan(1, 0, "step", "phase", 0, 400, 0, 0),
		mkSpan(2, 1, "gemm", "kernel", 0, 200, 1e8, 1e6),
		mkSpan(3, 1, "im2col", "kernel", 200, 100, 0, 1e6),
		mkSpan(4, 1, "loss.xent", "kernel", 300, 50, 0, 1e5),
	)
	p := replaySpec(t, tr, "parallel=4")
	// gemm 200->50, im2col 100->25, loss and residue (50+50) unchanged.
	approx(t, "step", p.PredictedStepUs, 50+25+50+50, 1e-6)
}

// clusterTrace merges one one-step capture per rank: forward work of
// fwdUs[r] in a kernel named gemm.r<r>, then a phase.sync holding one comm
// span of commUs[r] that moved bytes each way. walls default to the step.
func clusterTrace(t *testing.T, meta prof.Meta, fwdUs, commUs []float64, bytes int64, walls ...float64) *prof.Trace {
	t.Helper()
	comm := "comm.ring.allreduce"
	if strings.HasPrefix(meta.Strategy, "ps") {
		comm = "comm.ps.roundtrip"
	}
	var ranks []*prof.Trace
	for r := range fwdUs {
		meta.Rank = r
		step := fwdUs[r] + commUs[r]
		wall := step
		if r < len(walls) {
			wall = walls[r]
		}
		ranks = append(ranks, mkTrace(t, meta, wall,
			mkSpan(1, 0, "step", "phase", 0, step, 0, 0),
			mkSpan(2, 1, "phase.forward", "phase", 0, fwdUs[r], 0, 0),
			mkSpan(3, 2, fmt.Sprintf("gemm.r%d", r), "kernel", 0, fwdUs[r], 0, 0),
			mkSpan(4, 1, "phase.sync", "phase", fwdUs[r], commUs[r], 0, 0),
			mkSpan(5, 4, comm, "comm", fwdUs[r], commUs[r], 0, bytes),
		))
	}
	m, err := prof.Merge(ranks...)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// A 2-rank ring at 125 MB/s, each rank sending 2^20-element chunks: two
// hops of 4 MiB a step on each rank's link, past the bucket's 1.25 MB
// burst, 57108.864 us of wire.
const ringLinkUs = (8<<20 - 1.25e6) / 125

func ringTrace(t *testing.T) *prof.Trace {
	return clusterTrace(t, prof.Meta{Workers: 2, Strategy: "ring", Compression: "full", BandwidthMBps: 125},
		[]float64{1000, 1000}, []float64{60000, 60000}, 16<<20)
}

func TestReplayCommBandwidth(t *testing.T) {
	tr := ringTrace(t)
	// At 10 GbE both hops fit the 12.5 MB burst: the wire time goes.
	p := replaySpec(t, tr, "bw=10gbe")
	approx(t, "step", p.PredictedStepUs, 61000-ringLinkUs, 1e-9)
	// Removing the throttle leaves only the CPU time.
	p = replaySpec(t, tr, "bw=unlimited")
	approx(t, "step", p.PredictedStepUs, 61000-ringLinkUs, 1e-9)
	// A slower link pays the whole volume past a smaller burst.
	p = replaySpec(t, tr, "bw=62.5")
	approx(t, "step", p.PredictedStepUs, 61000-ringLinkUs+(8<<20-625e3)/62.5, 1e-9)
}

// TestReplayPSCommSharesServerNIC: four ranks push 4 MiB each through the
// server's one ingress lane, so bw= moves every rank's roundtrip by the
// shared NIC's 16 MiB ÷ rate (less each burst), plus the last range's
// replies queued ahead of its own on the egress lane, not by its own bytes.
func TestReplayPSCommSharesServerNIC(t *testing.T) {
	tr := clusterTrace(t, prof.Meta{Workers: 4, Strategy: "ps-sync", Compression: "full", BandwidthMBps: 125},
		[]float64{1000, 1000, 1000, 1000}, []float64{150000, 150000, 150000, 150000}, 8<<20)
	p := replaySpec(t, tr, "bw=10gbe")
	var comm Delta
	for _, d := range p.Kernels {
		if d.Name == "comm.ps.roundtrip" {
			comm = d
		}
	}
	nic := 4 * (float64(16<<20-12.5e6)/1250 - float64(16<<20-1.25e6)/125)
	replies := (1 + 2 + 3 + 4) * (float64(64<<10)/1250 - float64(64<<10)/125)
	approx(t, "comm aggregate shift", comm.PredictedUs-comm.BaselineUs, nic+replies, 1e-9)
}

func TestReplayCompressionBlendsWireFormat(t *testing.T) {
	tr := ringTrace(t)
	// Only the reduce-scatter hop shrinks: 2^20 elements at 2 bytes
	// instead of 4, then at 1. The all-gather stays fp32.
	p := replaySpec(t, tr, "compress=fp16")
	approx(t, "step", p.PredictedStepUs, 61000-float64(2<<20)/125, 1e-9)
	p = replaySpec(t, tr, "compress=int8")
	approx(t, "step", p.PredictedStepUs, 61000-float64(3<<20)/125, 1e-9)
}

// TestReplayRingPeerWaitsForSlowRank: rank 1 computes twice as long as
// rank 0, which waits for it inside its all-reduce. Speeding up only rank
// 0's work makes it wait longer: its step stays as long as rank 1's.
func TestReplayRingPeerWaitsForSlowRank(t *testing.T) {
	// Rank 0's wall is the cluster's, so the wall moves with its step;
	// rank 1's step is the rest of the mean.
	tr := clusterTrace(t, prof.Meta{Workers: 2, Strategy: "ring", Compression: "full", BandwidthMBps: 125},
		[]float64{10000, 20000}, []float64{10500, 500}, 16000, 1e6)
	p := replaySpec(t, tr, "speedup=gemm.r0:2")
	step0 := 20500 + p.PredictedWallUs - p.BaselineWallUs
	step1 := 2*p.PredictedStepUs - step0
	if step0 < step1 || step0 != 20500 {
		t.Fatalf("rank steps %v and %v us; rank 0 must still wait for rank 1's 20500 us", step0, step1)
	}
}

func TestReplayFP16AndMemory(t *testing.T) {
	tr := twoStepTrace(t)
	tr.Mem = prof.MemWatermark{MemBreakdown: prof.MemBreakdown{Weights: 1000, WeightGradients: 1000, FeatureMaps: 4000, Workspace: 2000, Dynamic: 500}, PeakTotal: 8500}
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
	tr.Mem = prof.MemWatermark{MemBreakdown: prof.MemBreakdown{Weights: 1 << 20, FeatureMaps: 64 << 20}, PeakTotal: 65 << 20}
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
	tr := mkTrace(t, prof.Meta{Batch: 32}, 400,
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

// TestReplayBoundsTheExchange: a trace file whose comm spans claim more
// bytes than a bounded task list can carry is replayed without the
// cluster schedule, with a note, instead of building it.
// commAggregate is the predicted comm.ps.roundtrip row.
func commAggregate(t *testing.T, p *Prediction) Delta {
	t.Helper()
	for _, d := range p.Kernels {
		if d.Name == "comm.ps.roundtrip" {
			return d
		}
	}
	t.Fatal("no comm.ps.roundtrip row")
	return Delta{}
}

// TestReplayPSServerTakesPushesInOnTheHostCPUs: four ranks push one 64 KiB
// range each through a 1 MB/s server NIC, each recording 1000 us of CPU
// over its exchange. At 1 MB/s the pushes arrive 65 ms apart and the
// server's intake hides behind them but for the last rank's 1000 us. At
// 10 GbE they all arrive at once and queue for the host's CPUs: 4000 us on
// one, 2000 us on two, 1000 us on four (or more: a rank is one intake).
func TestReplayPSServerTakesPushesInOnTheHostCPUs(t *testing.T) {
	const cpuUs = 1000
	trace := func(cpus int, cpu bool) *prof.Trace {
		tr := clusterTrace(t, prof.Meta{Workers: 4, Strategy: "ps-sync", Compression: "full", BandwidthMBps: 1, CPUs: cpus},
			[]float64{1000, 1000, 1000, 1000}, []float64{600000, 600000, 600000, 600000}, 2*(64<<10))
		for r := range tr.Ranks {
			for i := range tr.Ranks[r].Records {
				if rec := &tr.Ranks[r].Records[i]; rec.Cat == prof.CatComm && cpu {
					rec.CPU = usDur(cpuUs)
				}
			}
		}
		return tr
	}
	without := commAggregate(t, replaySpec(t, trace(2, false), "bw=10gbe"))
	for cpus, queued := range map[int]float64{0: 4000, 1: 4000, 2: 2000, 4: 1000, 64: 1000} {
		with := commAggregate(t, replaySpec(t, trace(cpus, true), "bw=10gbe"))
		// Each rank's roundtrip gains its queue for the CPUs at 10 GbE, less
		// the last intake the 1 MB/s recording already paid.
		approx(t, fmt.Sprintf("%d CPUs: comm aggregate against no intake", cpus),
			with.PredictedUs-without.PredictedUs, 4*(queued-cpuUs), 1e-9)
	}
}

func TestReplayBoundsTheExchange(t *testing.T) {
	many := make([]float64, 3000) // 2(N-1) hops of one piece on N links: 18M tasks
	for r := range many {
		many[r] = 1000
	}
	for name, tr := range map[string]*prof.Trace{
		"a huge exchange": clusterTrace(t, prof.Meta{Workers: 2, Strategy: "ring", Compression: "full", BandwidthMBps: 125},
			[]float64{1000, 1000}, []float64{60000, 60000}, 1<<62),
		"many ranks, few bytes": clusterTrace(t, prof.Meta{Workers: len(many), Strategy: "ring", Compression: "full", BandwidthMBps: 125},
			many, many, 64),
		"an unknown encoding": clusterTrace(t, prof.Meta{Workers: 2, Strategy: "ring", Compression: "zstd", BandwidthMBps: 125},
			[]float64{1000, 1000}, []float64{60000, 60000}, 16<<20),
	} {
		p := replaySpec(t, tr, "bw=10gbe")
		if p.PredictedStepUs != p.BaselineStepUs || !strings.Contains(strings.Join(p.Notes, "\n"), "cluster model skipped") {
			t.Errorf("%s: step %v -> %v us, notes %q", name, p.BaselineStepUs, p.PredictedStepUs, p.Notes)
		}
	}
}

func TestReplayMultiRankWallIsSlowestRank(t *testing.T) {
	// Rank 1 computes 1500 us, rank 0 1000 us and waits 500 us for it.
	// Halving rank 1's work moves that wait to rank 1 (250 us): both steps
	// lose 500 us, and the cluster wall is rank 1's 11000 - 500.
	tr := clusterTrace(t, prof.Meta{Workers: 2, Strategy: "ring", Compression: "full", BandwidthMBps: 125},
		[]float64{1000, 1500}, []float64{8000, 8000}, 16000, 10000, 11000)
	p := replaySpec(t, tr, "speedup=gemm.r1:2")
	approx(t, "wall", p.PredictedWallUs, 10500, 1e-9)
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

// TestParseScenarioRefusesNonFiniteValues: NaN, infinities and a memory
// size past int64 are named errors, not a scenario.
func TestParseScenarioRefusesNonFiniteValues(t *testing.T) {
	for _, spec := range []string{
		"speedup=gemm*:NaN", "kernelmodel=gemm*:Inf", "bw=NaN", "bw=Inf", "offload=NaN", "offload=1e300gb",
	} {
		if sc, err := ParseScenario(spec); !errors.Is(err, ErrBadNumber) {
			t.Errorf("ParseScenario(%q) = %+v, %v; want ErrBadNumber", spec, sc, err)
		}
	}
}

// FuzzParseScenario: any spec parses to an error, or to a scenario whose
// every number is finite and positive (bw's 0 unset and -1 unlimited
// aside) and which describes itself without panicking.
func FuzzParseScenario(f *testing.F) {
	for _, seed := range []string{
		"", "speedup=gemm*:2.3", "kernelmodel=gemm.dX:56.58", "parallel=4", "batch=64", "fp16", "fused=on", "fused=off",
		"bw=10gbe", "bw=unlimited", "bw=62.5", "compress=int8", "offload=0.5gb", "offload=256mb", "drop=step/phase.backward/fc1/gemm.dX",
		"batch=64,fp16,bw=10gbe,compress=fp16", "speedup=gemm*:NaN", "kernelmodel=gemm*:Inf", "bw=NaN", "bw=Inf",
		"offload=NaN", "offload=1e300gb",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		sc, err := ParseScenario(spec)
		if err != nil {
			return
		}
		ok := func(v float64) bool { return v > 0 && !math.IsInf(v, 0) }
		for _, cf := range append(sc.Speedups, sc.KernelModels...) {
			if !ok(cf.Factor) {
				t.Fatalf("%q: factor %v for %q", spec, cf.Factor, cf.Glob)
			}
		}
		if sc.Parallel < 0 || sc.Batch < 0 || sc.OffloadTargetBytes < 0 || !ok(sc.BandwidthMBps) && sc.BandwidthMBps != 0 && sc.BandwidthMBps != -1 {
			t.Fatalf("%q: %+v", spec, sc)
		}
		if len(sc.Describe()) == 0 {
			t.Fatalf("%q: no description", spec)
		}
	})
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

// TestFromRecordsRejectsEmpty: a capture with no records cannot be
// replayed.
func TestFromRecordsRejectsEmpty(t *testing.T) {
	prof.Enable()
	prof.Disable()
	sc, _ := ParseScenario("")
	if _, err := Replay(prof.Current(prof.Meta{}), sc); err == nil {
		t.Fatal("an empty capture must fail")
	}
}
