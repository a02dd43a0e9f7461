package prof

import (
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestDisabledSpanAllocsNothing pins the disabled fast path: one atomic
// load, no clock read side effects visible, zero allocations.
func TestDisabledSpanAllocsNothing(t *testing.T) {
	Disable()
	allocs := testing.AllocsPerRun(1000, func() {
		sp := Begin(CatKernel, "gemm")
		sp.SetFLOPs(1e6)
		sp.SetBytes(1 << 20)
		sp.End()
	})
	if allocs != 0 {
		t.Fatalf("disabled span path allocates %.1f objects/op, want 0", allocs)
	}
	if got := Current(Meta{}).Ranks[0].Records; len(got) != 0 {
		t.Fatalf("disabled spans recorded %d events", len(got))
	}
}

// TestSpanRecording checks the record fields, aggregation math, and that
// Enable resets a previous capture.
func TestSpanRecording(t *testing.T) {
	var gets, hits uint64
	// Restore whatever source was installed (the tensor package's, when
	// this binary also links tensor) so later tests see real counters.
	prev := poolSource
	SetPoolCounterSource(func() (uint64, uint64) { return gets, hits })
	defer SetPoolCounterSource(prev)

	Enable()
	for i := 0; i < 3; i++ {
		sp := Begin(CatKernel, "gemm")
		if !sp.Active() {
			t.Fatal("span inactive while enabled")
		}
		sp.SetFLOPs(100)
		sp.SetBytes(40)
		gets += 2
		hits++
		time.Sleep(100 * time.Microsecond)
		sp.End()
	}
	other := Begin(CatPhase, "step")
	other.End()
	Disable()

	recs := Current(Meta{}).Ranks[0].Records
	if len(recs) != 4 {
		t.Fatalf("got %d records, want 4", len(recs))
	}
	r := recs[0]
	if r.Name != "gemm" || r.Cat != CatKernel {
		t.Fatalf("record identity = %q/%v", r.Name, r.Cat)
	}
	if r.Dur <= 0 || r.Start < 0 {
		t.Fatalf("record timing start=%v dur=%v", r.Start, r.Dur)
	}
	if r.PoolGets != 2 || r.PoolHits != 1 {
		t.Fatalf("pool deltas = %d/%d, want 2/1", r.PoolGets, r.PoolHits)
	}
	if recs[1].Start < recs[0].Start {
		t.Fatal("records out of completion order")
	}

	snap := Stats()
	if snap.Enabled {
		t.Fatal("snapshot claims enabled after Disable")
	}
	if snap.WallSec <= 0 {
		t.Fatal("no wall time")
	}
	if len(snap.Kernels) != 2 {
		t.Fatalf("got %d stat rows, want 2", len(snap.Kernels))
	}
	var gemm *KernelStat
	for i := range snap.Kernels {
		if snap.Kernels[i].Name == "gemm" {
			gemm = &snap.Kernels[i]
		}
	}
	if gemm == nil {
		t.Fatal("no gemm row")
	}
	if gemm.Count != 3 || gemm.Bytes != 120 || gemm.PoolGets != 6 || gemm.PoolHits != 3 {
		t.Fatalf("gemm row = %+v", *gemm)
	}
	if gemm.TotalMs <= 0 || gemm.MeanUs <= 0 || gemm.PctWall <= 0 || gemm.GFLOPS <= 0 {
		t.Fatalf("gemm derived metrics = %+v", *gemm)
	}

	// Enable resets everything.
	Enable()
	Disable()
	if got := Current(Meta{}).Ranks[0].Records; len(got) != 0 {
		t.Fatalf("Enable did not reset: %d records", len(got))
	}
	if snap := Stats(); len(snap.Kernels) != 0 || snap.Events != 0 {
		t.Fatalf("Enable did not reset stats: %+v", snap)
	}
}

// TestRecordCapDropsTimelineNotStats overflows the record buffer and
// checks that aggregation still counts every span.
func TestRecordCapDropsTimelineNotStats(t *testing.T) {
	SetMaxRecords(8)
	defer SetMaxRecords(0)
	Enable()
	for i := 0; i < 20; i++ {
		sp := Begin(CatKernel, "tiny")
		sp.End()
	}
	Disable()
	if got := len(Current(Meta{}).Ranks[0].Records); got != 8 {
		t.Fatalf("timeline kept %d records, want 8", got)
	}
	if got := Current(Meta{}).Dropped; got != 12 {
		t.Fatalf("dropped = %d, want 12", got)
	}
	snap := Stats()
	if len(snap.Kernels) != 1 || snap.Kernels[0].Count != 20 {
		t.Fatalf("stats lost dropped spans: %+v", snap.Kernels)
	}
	if snap.DroppedEvents != 12 {
		t.Fatalf("snapshot dropped = %d", snap.DroppedEvents)
	}
}

// TestOrphanSpanDropped: a span that straddles a capture restart must not
// corrupt the new capture's timeline.
// TestMeasureCPURecordsProcessCPU: a span that asks for it records the CPU
// the process burned while it ran; one that does not records none.
func TestMeasureCPURecordsProcessCPU(t *testing.T) {
	Enable()
	sp := Begin(CatComm, "busy")
	sp.MeasureCPU()
	for start := time.Now(); time.Since(start) < 20*time.Millisecond; {
	}
	sp.End()
	idle := Begin(CatComm, "idle")
	idle.End()
	Disable()
	recs := Current(Meta{}).Ranks[0].Records
	if len(recs) != 2 || recs[1].CPU != 0 {
		t.Fatalf("records %+v: want two, the second with no CPU", recs)
	}
	if cpu := recs[0].CPU; cpu < 0 || (processCPU() > 0 && cpu < time.Millisecond) {
		t.Fatalf("20 ms of spinning recorded %v of CPU", cpu)
	}
}

func TestOrphanSpanDropped(t *testing.T) {
	Enable()
	sp := Begin(CatKernel, "orphan")
	Enable() // restart moves the epoch forward
	sp.End()
	Disable()
	if got := Current(Meta{}).Ranks[0].Records; len(got) != 0 {
		t.Fatalf("orphan span recorded: %+v", got)
	}
}

// TestMemWatermark checks per-category maxima and the peak-total rule.
func TestMemWatermark(t *testing.T) {
	Enable()
	SampleMemory(10, 10, 100, 5, 0)
	SampleMemory(10, 10, 40, 50, 8) // bigger workspace+dynamic, smaller total
	Disable()
	w := Current(Meta{}).Mem
	if w.Weights != 10 || w.WeightGradients != 10 {
		t.Fatalf("weights/grads = %d/%d", w.Weights, w.WeightGradients)
	}
	if w.FeatureMaps != 100 || w.Workspace != 50 || w.Dynamic != 8 {
		t.Fatalf("maxima = %+v", w)
	}
	if w.PeakTotal != 125 {
		t.Fatalf("peak total = %d, want 125 (first sample)", w.PeakTotal)
	}
	if w.Samples != 2 {
		t.Fatalf("samples = %d", w.Samples)
	}

	// Disabled sampling is a no-op.
	SampleMemory(1<<40, 0, 0, 0, 0)
	if got := Current(Meta{}).Mem; got.Weights != 10 {
		t.Fatalf("disabled SampleMemory recorded: %+v", got)
	}
}

// TestConcurrentSpans exercises the collector under the race detector.
func TestConcurrentSpans(t *testing.T) {
	Enable()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				sp := Begin(CatKernel, "conc")
				sp.SetFLOPs(1)
				sp.End()
				SampleMemory(1, 1, 1, 1, 1)
			}
		}()
	}
	wg.Wait()
	Disable()
	snap := Stats()
	if len(snap.Kernels) != 1 || snap.Kernels[0].Count != 1600 {
		t.Fatalf("concurrent aggregation lost spans: %+v", snap.Kernels)
	}
}

// TestSnapshotTableAndJSON smoke-tests the report exports.
func TestSnapshotTableAndJSON(t *testing.T) {
	Enable()
	sp := Begin(CatOptim, "optim.sgd")
	sp.End()
	Disable()
	snap := Stats()

	tbl := snap.Table(0)
	var sb strings.Builder
	if err := tbl.Render(&sb); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"optim.sgd", "Self ms", "unattributed"} {
		if !strings.Contains(sb.String(), want) {
			t.Fatalf("table missing %q:\n%s", want, sb.String())
		}
	}

	sb.Reset()
	if err := snap.WriteJSON(&sb); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"kernels"`, `"memory_watermark"`, `"optim.sgd"`, `"wall_sec"`, `"self_ms"`, `"unattributed_ms"`} {
		if !strings.Contains(sb.String(), want) {
			t.Fatalf("snapshot JSON missing %s:\n%s", want, sb.String())
		}
	}

	// Table truncation keeps the top kernel rows, folds the rest into one
	// row, then adds the budget rows: the self column still sums to the wall.
	if rows := snap.Table(0).Rows; len(rows) != 2 {
		t.Fatalf("full table has %d rows, want the kernel and unattributed", len(rows))
	}
	cut := Snapshot{Kernels: []KernelStat{{SelfMs: 4}, {SelfMs: 3}, {SelfMs: 2, Count: 5}, {SelfMs: 1, Count: 6}}, UnattributedMs: 0.5, ConcurrentMs: 1}
	rows := cut.Table(2).Rows
	if len(rows) != 5 || rows[2][0] != "other" || rows[2][2] != "11" || rows[2][4] != "3" {
		t.Fatalf("topK table rows %v, want 2 kernels, other (11 spans, 3 ms self), unattributed and concurrent", rows)
	}
	var self float64
	for _, r := range rows {
		v, err := strconv.ParseFloat(r[4], 64)
		if err != nil {
			t.Fatal(err)
		}
		self += v
	}
	if self != 9.5 {
		t.Fatalf("topK table's self column sums to %v, want the 9.5 ms wall", self)
	}
}
