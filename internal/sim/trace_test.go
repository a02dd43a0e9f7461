package sim

import (
	"bytes"
	"reflect"
	"testing"
	"time"

	"tbd/internal/kernels"
	"tbd/internal/prof"
)

// record replays ops with an ImageNet-sized input transfer, recording
// the iteration.
func record(ops []*kernels.Op, batch int) (Result, prof.Capture) {
	cfg := baseCfg()
	cfg.SampleBytes = 3 * 224 * 224 * 4
	var c prof.Capture
	r := Replay(Stream(ops, batch, kernels.StyleTF, cfg), batch, cfg, &c)
	return r, c
}

// kernelSpans returns a capture's kernel spans in launch order.
func kernelSpans(c prof.Capture) []prof.Record {
	var ks []prof.Record
	for _, r := range c.Records {
		if r.Cat == prof.CatKernel {
			ks = append(ks, r)
		}
	}
	return ks
}

func TestTraceConsistentWithResult(t *testing.T) {
	for name, ops := range map[string][]*kernels.Op{"cnn": cnnOps(), "lstm": lstmOps()} {
		res, c := record(ops, 16)
		tree, err := prof.BuildTree(c.Records, c.Wall)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		var n int
		var busy, gap time.Duration
		for _, nd := range tree.Nodes {
			if nd.Cat == prof.CatKernel {
				n++
				busy += nd.Dur
			} else {
				gap += nd.Self
			}
		}
		tol := float64(res.KernelCount) * 1e-9 // 1 ns a kernel
		if n != res.KernelCount {
			t.Fatalf("%s: %d kernel spans, result counts %d", name, n, res.KernelCount)
		}
		if d := busy.Seconds() - res.GPUBusySec; d > tol || d < -tol {
			t.Fatalf("%s: kernel spans sum to %v, result busy %.9f s", name, busy, res.GPUBusySec)
		}
		if d := gap.Seconds() - res.GapSec; d > tol || d < -tol {
			t.Fatalf("%s: non-kernel self time %v, result gap %.9f s", name, gap, res.GapSec)
		}
		if tree.Concurrent != 0 || c.Wall != simTime(res.IterTimeSec) {
			t.Fatalf("%s: concurrent %v, wall %v for a %.9f s iteration", name, tree.Concurrent, c.Wall, res.IterTimeSec)
		}
		var top []string
		for _, i := range tree.Nodes[0].Children {
			top = append(top, tree.Nodes[i].Name)
		}
		want := []string{"cudaMemcpyHtoD<input batch>", "phase.forward", "phase.backward", "phase.update"}
		if tree.Nodes[0].Name != "step" || !reflect.DeepEqual(top, want) {
			t.Fatalf("%s: %s's children %v, want %v", name, tree.Nodes[0].Name, top, want)
		}
	}
}

func TestTraceKernelsOrderedAndNonOverlapping(t *testing.T) {
	_, c := record(cnnOps(), 8)
	ks := kernelSpans(c)
	for i := 1; i < len(ks); i++ {
		if ks[i].Start < ks[i-1].Start+ks[i-1].Dur {
			t.Fatalf("kernel %d (%s) starts at %v, inside its predecessor", i, ks[i].Name, ks[i].Start)
		}
	}
	if ks[0].Dur <= 0 || ks[0].Bytes == 0 || ks[len(ks)-1].FLOPs <= 0 {
		t.Fatalf("kernel spans carry no cost: first %+v, last %+v", ks[0], ks[len(ks)-1])
	}
}

func TestTraceRoundTrips(t *testing.T) {
	_, c := record(cnnOps(), 4)
	want := &prof.Trace{Meta: prof.Meta{Model: "cnn", Steps: 1, Batch: 4}, Ranks: []prof.Capture{c}}
	var buf bytes.Buffer
	if err := want.Write(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := prof.ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	// What the file holds; a read trace also keeps the trees it built.
	if got.Meta != want.Meta || got.Mem != want.Mem || got.Dropped != want.Dropped || !reflect.DeepEqual(got.Ranks, want.Ranks) {
		t.Fatal("the simulated trace changed through the trace file")
	}
}

func TestLSTMTraceHasSyncGaps(t *testing.T) {
	lstm, lc := record(lstmOps(), 16)
	cnn, _ := record(cnnOps(), 16)
	if l, c := lstm.GapSec/lstm.GPUBusySec, cnn.GapSec/cnn.GPUBusySec; l <= c {
		t.Fatalf("lstm relative gap %.3f should exceed conv %.3f", l, c)
	}
	ks := kernelSpans(lc)
	for i := 1; i < len(ks); i++ {
		if ks[i].Start-(ks[i-1].Start+ks[i-1].Dur) >= 50*time.Microsecond {
			return
		}
	}
	t.Fatal("lstm timeline shows no sync gap of 50 µs")
}

func TestEmptyStreamRecordsNothing(t *testing.T) {
	var c prof.Capture
	r := Replay(nil, 1, baseCfg(), &c)
	if r.KernelCount != 0 || r.GapSec != 0 || len(c.Records) != 0 || c.Wall != simTime(r.IterTimeSec) {
		t.Fatalf("empty stream: %d kernels, %.9f s gap, %d spans, wall %v", r.KernelCount, r.GapSec, len(c.Records), c.Wall)
	}
	// Nothing is launched, so the iteration is the tail alone: no head
	// of host overhead runs before it.
	if want := baseCfg().IterOverheadSec / 2; r.IterTimeSec != want {
		t.Fatalf("empty stream: iteration %.9f s, want the tail's %.9f s", r.IterTimeSec, want)
	}
}
