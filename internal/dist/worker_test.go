package dist

import (
	"go/parser"
	"go/token"
	"net"
	"reflect"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"

	"tbd/internal/optim"
	"tbd/internal/prof"
)

func TestDistImportsNoSimulatedPlane(t *testing.T) {
	// internal/dist is sockets and processes: the cluster model, the
	// kernel cost model and the device tables live on the other plane.
	pkgs, err := parser.ParseDir(token.NewFileSet(), ".", nil, parser.ImportsOnly)
	if err != nil {
		t.Fatal(err)
	}
	for _, pkg := range pkgs {
		for name, f := range pkg.Files {
			if strings.HasSuffix(name, "_test.go") {
				continue
			}
			for _, imp := range f.Imports {
				path, _ := strconv.Unquote(imp.Path.Value)
				switch path {
				case "tbd/internal/sim", "tbd/internal/kernels", "tbd/internal/device", "tbd/internal/framework":
					t.Errorf("%s imports %s", name, path)
				}
			}
		}
	}
}

// soloRing trains one single-rank ring run of the mlp model through
// trainWorker and returns what the rank would report.
func soloRing(t *testing.T, steps int, profile bool) *trainResult {
	t.Helper()
	rings, err := NewLocalRings(1, CompressNone, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer rings[0].Close()
	model, err := RunModelByName("mlp")
	if err != nil {
		t.Fatal(err)
	}
	res, err := trainWorker(WorkerConfig{
		Workers: 1, Strategy: RunRing, Model: "mlp", Seed: 5, Steps: steps, GlobalBatch: 8, LR: 0.1, Profile: profile,
	}, model, rings[0], nil)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestProfiledRankSpanShapeAndTrajectory(t *testing.T) {
	const steps = 3
	res := soloRing(t, steps, true)
	if prof.Enabled() {
		t.Fatal("profiler still on after a profiled rank finished")
	}
	// The capture carries the step tree whatif.Replay keys on, with the
	// gradient exchange as the apply phase.
	spans := res.result.Trace.Spans
	sort.Slice(spans, func(i, j int) bool { return spans[i].StartUs < spans[j].StartUs })
	want := []string{"phase.forward", "phase.loss", "phase.backward", "phase.sync"}
	got := 0
	for _, step := range spans {
		if step.Name != "step" || step.Cat != "phase" {
			continue
		}
		got++
		var children []string
		for _, s := range spans {
			if s.Parent == step.ID && s.Cat == "phase" {
				children = append(children, s.Name)
			}
		}
		if !reflect.DeepEqual(children, want) {
			t.Fatalf("step children %v, want %v", children, want)
		}
	}
	if got != steps {
		t.Fatalf("captured %d step spans, want %d", got, steps)
	}
	// Profiler on ≡ off.
	if plain := soloRing(t, steps, false); plain.net.WeightsHash() != res.net.WeightsHash() {
		t.Fatalf("profiled rank ended on %#x, unprofiled on %#x", res.net.WeightsHash(), plain.net.WeightsHash())
	}
}

func TestFailedProfiledRankDisablesProfiler(t *testing.T) {
	rings, err := NewLocalRings(2, CompressNone, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer rings[0].Close()
	model, err := RunModelByName("mlp")
	if err != nil {
		t.Fatal(err)
	}
	// The peer takes part in one all-reduce, then dies.
	peerDone := make(chan error, 1)
	go func() {
		err := rings[1].AllReduce(make([]float32, model.Build(5).GradElems()))
		rings[1].Close()
		peerDone <- err
	}()
	_, err = trainWorker(WorkerConfig{
		Workers: 2, Strategy: RunRing, Model: "mlp", Seed: 5, Steps: 50, GlobalBatch: 8, LR: 0.1, Profile: true,
	}, model, rings[0], nil)
	if perr := <-peerDone; perr != nil {
		t.Fatalf("peer's one all-reduce: %v", perr)
	}
	if err == nil {
		t.Fatal("rank outlived its dead peer")
	}
	if prof.Enabled() {
		t.Fatal("failed rank left the process-global profiler on")
	}
}

func TestPSRankStepAllocatesNoGradientCopy(t *testing.T) {
	const name = "mlp-wide"
	model, err := RunModelByName(name)
	if err != nil {
		t.Fatal(err)
	}
	// run returns every byte the process allocated during one rank's
	// ps-sync run against a live in-process server.
	run := func(steps int) uint64 {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		_, params, err := BuildMasterParams(name, 3)
		if err != nil {
			t.Fatal(err)
		}
		s := ServePS(l, params, optim.NewSGD(0.01), 1)
		defer s.Close()
		c, err := DialPSThrottled(s.Addr(), 0)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err = trainWorker(WorkerConfig{
			Workers: 1, Strategy: RunPSSync, Model: name, Seed: 3, Steps: steps, GlobalBatch: 16, LR: 0.01,
		}, model, nil, c)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		return after.TotalAlloc - before.TotalAlloc
	}
	const n = 10
	perStep := (int64(run(2*n)) - int64(run(n))) / n // set-up cancels
	grads := int64(4 * model.Build(3).GradElems())
	t.Logf("%d bytes per steady-state step, one gradient copy is %d", perStep, grads)
	// The server streams every version from a recycled frame
	// (TestPushRankedSteadyStateAllocs), so what a step allocates is the
	// rank's own share, which must stay far below one copy.
	if limit := grads / 2; perStep > limit {
		t.Errorf("%d bytes per step, want at most %d: the rank is copying its gradients again", perStep, limit)
	}
}

func TestRingStepSteadyStateAllocs(t *testing.T) {
	const name, workers, batch = "mlp-wide", 2, 32
	model, err := RunModelByName(name)
	if err != nil {
		t.Fatal(err)
	}
	// run returns what the process allocated during a two-rank ring run:
	// bytes and allocations.
	run := func(steps int) (bytes, allocs uint64) {
		rings, err := NewLocalRings(workers, CompressNone, 0)
		if err != nil {
			t.Fatal(err)
		}
		defer func() {
			for _, r := range rings {
				r.Close()
			}
		}()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		var wg sync.WaitGroup
		errs := make([]error, workers)
		for rank, r := range rings {
			wg.Add(1)
			go func(rank int, r *Ring) {
				defer wg.Done()
				_, errs[rank] = trainWorker(WorkerConfig{
					Rank: rank, Workers: workers, Strategy: RunRing, Model: name, Seed: 3, Steps: steps, GlobalBatch: batch, LR: 0.05,
				}, model, r, nil)
			}(rank, r)
		}
		wg.Wait()
		runtime.ReadMemStats(&after)
		for _, err := range errs {
			if err != nil {
				t.Fatal(err)
			}
		}
		return after.TotalAlloc - before.TotalAlloc, after.Mallocs - before.Mallocs
	}
	const n = 25
	run(2) // the tensor pool's first fill
	b1, a1 := run(n)
	b2, a2 := run(3 * n)
	perBytes, perAllocs := (int64(b2)-int64(b1))/(2*workers*n), (int64(a2)-int64(a1))/(2*workers*n) // set-up cancels
	grads := uint64(4 * model.Build(3).GradElems())
	t.Logf("%d bytes in %d allocations per rank-step; the gradients are %d bytes, a rank's rows of the batch %d", perBytes, perAllocs, grads, 4*batch/workers*model.Shape[0])
	// Neither the flat buffers, the codec nor the batch are allocated per
	// step; what is left is span-free bookkeeping (the hop goroutines and
	// their result channels).
	if limit := int64(8 << 10); perBytes > limit {
		t.Errorf("%d bytes per rank-step, want at most %d: a warmed ring step is allocating buffers again", perBytes, limit)
	}
}
