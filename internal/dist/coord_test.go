package dist

import (
	"slices"
	"strings"
	"testing"
	"time"

	"tbd/internal/tensor"
)

// runCoordinated executes a full coordinated run with goroutine workers
// over real TCP: the exact path `tbd dist` exercises with OS processes.
func runCoordinated(t *testing.T, cfg CoordConfig, steps, batch int, bytesPerSec float64) *RunSummary {
	t.Helper()
	summary, err := RunLocal(cfg, steps, batch, bytesPerSec)
	if err != nil {
		t.Fatal(err)
	}
	return summary
}

func TestCoordinatedRingRunIdenticalAndReproducible(t *testing.T) {
	cfg := CoordConfig{Workers: 4, Strategy: RunRing, Model: "mlp", Seed: 17, LR: 0.1}
	first := runCoordinated(t, cfg, 10, 16, 0)
	if !first.Identical {
		t.Fatal("ring workers finished with diverging weights")
	}
	if len(first.Results) != 4 {
		t.Fatalf("collected %d results, want 4", len(first.Results))
	}
	for _, r := range first.Results {
		if r.Steps != 10 || r.WireOut == 0 || r.WireIn == 0 {
			t.Fatalf("rank %d result incomplete: %+v", r.Rank, r)
		}
		if r.LastLoss >= r.FirstLoss {
			t.Fatalf("rank %d did not learn: %.4f -> %.4f", r.Rank, r.FirstLoss, r.LastLoss)
		}
	}
	if first.Cluster.Throughput <= 0 {
		t.Fatal("cluster window has no throughput")
	}

	second := runCoordinated(t, cfg, 10, 16, 0)
	if second.Hash != first.Hash {
		t.Fatalf("repeated ring run hash %x != first %x", second.Hash, first.Hash)
	}
}

func TestCoordinatedPSSyncRun(t *testing.T) {
	for _, comp := range []Compression{CompressNone, CompressInt8} {
		t.Run(comp.String(), func(t *testing.T) {
			cfg := CoordConfig{Workers: 2, Strategy: RunPSSync, Compression: comp, Model: "mlp", Seed: 23, LR: 0.1}
			s := runCoordinated(t, cfg, 8, 8, 0)
			if !s.Identical {
				t.Fatal("ps-sync workers finished with diverging weights")
			}
			for _, r := range s.Results {
				if r.LastLoss >= r.FirstLoss {
					t.Fatalf("rank %d did not learn: %.4f -> %.4f", r.Rank, r.FirstLoss, r.LastLoss)
				}
			}
		})
	}
}

func TestCoordinatedPSAsyncRunConvergesToOneState(t *testing.T) {
	// Async runs are not run-to-run deterministic, but the all-done
	// barrier plus final pull must leave every rank holding the SAME
	// final server state.
	cfg := CoordConfig{Workers: 3, Strategy: RunPSAsync, Staleness: 2, Model: "mlp", Seed: 29, LR: 0.05}
	s := runCoordinated(t, cfg, 12, 12, 0)
	if !s.Identical {
		t.Fatal("ps-async workers did not converge to one final state")
	}
}

func TestRunWorkerValidates(t *testing.T) {
	if _, err := RunWorker(WorkerConfig{Model: "nope"}); err == nil {
		t.Fatal("unknown model must error")
	}
	if _, err := RunWorker(WorkerConfig{Model: "mlp", Rank: 2, Workers: 2}); err == nil {
		t.Fatal("rank out of range must error")
	}
	if _, err := RunWorker(WorkerConfig{Model: "mlp", Rank: 0, Workers: 3, GlobalBatch: 8}); err == nil {
		t.Fatal("indivisible global batch must error")
	}
	for _, batch := range []int{0, -4} {
		if _, err := RunWorker(WorkerConfig{Model: "mlp", Rank: 0, Workers: 2, GlobalBatch: batch}); err == nil || !strings.Contains(err.Error(), "must be positive") {
			t.Fatalf("global batch %d: error %v, want a non-positive batch refused", batch, err)
		}
	}
}

// TestRunLocalRefusesBadBatch holds RunLocal to a named error, within 5 s,
// for a global batch its ranks cannot share: before the check, each rank
// exited before its hello and the coordinator waited forever.
func TestRunLocalRefusesBadBatch(t *testing.T) {
	for _, batch := range []int{3, -4} {
		done := make(chan error, 1)
		go func() {
			_, err := RunLocal(CoordConfig{Workers: 2, Strategy: RunRing, Model: "mlp", Seed: 1, LR: 0.1}, 1, batch, 0)
			done <- err
		}()
		select {
		case err := <-done:
			if err == nil || !strings.Contains(err.Error(), "must be positive and divisible by 2 workers") {
				t.Fatalf("RunLocal at global batch %d: error %v, want the batch refused", batch, err)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("RunLocal at global batch %d did not return within 5 s", batch)
		}
	}
}

func TestRunStrategyParsing(t *testing.T) {
	for _, c := range []struct {
		in   string
		want RunStrategy
	}{{"ps-sync", RunPSSync}, {"ps-async", RunPSAsync}, {"ring", RunRing}} {
		got, err := ParseRunStrategy(c.in)
		if err != nil || got != c.want {
			t.Fatalf("ParseRunStrategy(%q) = %v, %v", c.in, got, err)
		}
		if got.String() != c.in {
			t.Fatalf("%v.String() = %q, want %q", got, got.String(), c.in)
		}
	}
	if _, err := ParseRunStrategy("gossip"); err == nil {
		t.Fatal("unknown strategy must error")
	}
}

func TestSyntheticBatchShapes(t *testing.T) {
	rng := tensor.NewRNG(5)
	x, labels := SyntheticBatch(rng, []int{3, 4, 4}, 8, 6)
	if got := x.Shape(); len(got) != 4 || got[0] != 6 || got[1] != 3 || got[2] != 4 || got[3] != 4 {
		t.Fatalf("batch shape %v, want [6 3 4 4]", got)
	}
	if len(labels) != 6 {
		t.Fatalf("%d labels for 6 samples", len(labels))
	}
	for _, l := range labels {
		if l < 0 || l >= 8 {
			t.Fatalf("label %d outside [0, 8)", l)
		}
	}
	// Identically seeded draws must be identical (the determinism the
	// worker data pipeline relies on).
	y, ylabels := SyntheticBatch(tensor.NewRNG(5), []int{3, 4, 4}, 8, 6)
	for i, v := range x.Data() {
		if y.Data()[i] != v {
			t.Fatal("identically seeded batches differ")
		}
	}
	for i, l := range labels {
		if ylabels[i] != l {
			t.Fatal("identically seeded labels differ")
		}
	}
}

func TestSyntheticRowsAreTheBatchShard(t *testing.T) {
	// A rank drawing only its rows gets SyntheticBatch's rows and leaves
	// its RNG where drawing the whole batch would. The 3-scalar samples
	// make the skipped Norm counts odd.
	const classes, n, workers = 4, 6, 3
	next := func(rng tensor.RNG) (float64, uint64) { return rng.Norm(), rng.Uint64() }
	for _, shape := range [][]int{{3}, {16}, {3, 2, 2}} {
		whole, shard := tensor.NewRNG(9), tensor.NewRNG(9)
		rows := n / workers
		for batch := 0; batch < 2; batch++ {
			x, labels := SyntheticBatch(whole, shape, classes, n)
			inner := x.Numel() / n
			for rank := 0; rank < workers; rank++ {
				rng := *shard // every rank draws from the same state
				xs, ys := make([]float32, rows*inner), make([]int, rows)
				syntheticRows(&rng, classes, n, rank*rows, xs, ys)
				if !slices.Equal(xs, x.Data()[rank*rows*inner:(rank+1)*rows*inner]) || !slices.Equal(ys, labels[rank*rows:(rank+1)*rows]) {
					t.Fatalf("shape %v, batch %d: rank %d's rows differ from the whole batch's", shape, batch, rank)
				}
				gotN, gotU := next(rng)
				if wantN, wantU := next(*whole); gotN != wantN || gotU != wantU {
					t.Fatalf("shape %v, batch %d: rank %d's RNG is not where the whole batch left it", shape, batch, rank)
				}
			}
			*shard = *whole
		}
	}
}

func TestSplitBatchValidates(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("want panic on indivisible batch")
		}
	}()
	x := tensor.New(10, 2)
	SplitBatch(x, make([]int, 10), 3)
}
