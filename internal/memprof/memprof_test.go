package memprof

import (
	"strings"
	"testing"

	"tbd/internal/graph"
	"tbd/internal/kernels"
	"tbd/internal/layers"
	"tbd/internal/prof"
	"tbd/internal/tensor"
)

func cnnOps() []*kernels.Op {
	var ops []*kernels.Op
	c, h := 64, 56
	for i := 0; i < 16; i++ {
		ops = append(ops,
			&kernels.Op{Name: "conv", Kind: kernels.OpConv2D, InC: c, OutC: c, H: h, W: h, K: 3, Stride: 1, Pad: 1},
			&kernels.Op{Name: "bn", Kind: kernels.OpBatchNorm, Channels: c, H: h, W: h},
			&kernels.Op{Name: "relu", Kind: kernels.OpActivation, Channels: c, H: h, W: h},
		)
	}
	ops = append(ops, &kernels.Op{Name: "fc", Kind: kernels.OpDense, In: 2048, Out: 1000, Rows: 1})
	return ops
}

func TestFeatureMapsDominate(t *testing.T) {
	// Observation 11: feature maps consume 62-89% of the footprint.
	b := ProfileOps(cnnOps(), 32, DefaultPolicy())
	share := b.FeatureMapShare()
	if share < 0.6 || share > 0.95 {
		t.Fatalf("feature-map share %.2f, want in [0.6, 0.95]: %s", share, b)
	}
}

func TestFeatureMapsScaleLinearlyWithBatch(t *testing.T) {
	// Observation 12's basis: feature-map memory is linear in batch size
	// while weights are constant.
	b8 := ProfileOps(cnnOps(), 8, DefaultPolicy())
	b32 := ProfileOps(cnnOps(), 32, DefaultPolicy())
	if b32.Weights != b8.Weights || b32.WeightGradients != b8.WeightGradients {
		t.Fatal("weights must not scale with batch")
	}
	ratio := float64(b32.FeatureMaps) / float64(b8.FeatureMaps)
	if ratio < 3.99 || ratio > 4.01 {
		t.Fatalf("feature maps scaled %.3fx for 4x batch", ratio)
	}
}

func TestDynamicCategoryPolicy(t *testing.T) {
	// MXNet-style lazy optimizer state lands in "dynamic"; TF-style
	// static allocation folds it into weights.
	mx := DefaultPolicy()
	mx.DynamicOptimizerState = true
	tf := DefaultPolicy()
	bm := ProfileOps(cnnOps(), 16, mx)
	bt := ProfileOps(cnnOps(), 16, tf)
	if bm.Dynamic == 0 {
		t.Fatal("MXNet policy must report dynamic memory")
	}
	if bt.Dynamic != 0 {
		t.Fatal("TF policy must not report dynamic memory")
	}
	if bm.Total() != bt.Total() {
		t.Fatalf("categorization must not change the total: %d vs %d", bm.Total(), bt.Total())
	}
}

func TestWorkspaceIsMaxNotSum(t *testing.T) {
	ops := cnnOps()
	b := ProfileOps(ops, 8, DefaultPolicy())
	var maxW, sumW int64
	for _, o := range ops {
		w := o.WorkspaceBytes(8)
		sumW += w
		if w > maxW {
			maxW = w
		}
	}
	if b.Workspace != maxW {
		t.Fatalf("workspace %d, want max %d (arena is reused)", b.Workspace, maxW)
	}
	if b.Workspace >= sumW {
		t.Fatal("workspace must be far below the sum of per-op scratch")
	}
}

func TestMaxBatchRespectsCapacity(t *testing.T) {
	ops := cnnOps()
	cands := []int{4, 8, 16, 32, 64, 128}
	small := MaxBatch(ops, cands, DefaultPolicy(), 1<<30)  // 1 GB
	large := MaxBatch(ops, cands, DefaultPolicy(), 16<<30) // 16 GB
	if small >= large {
		t.Fatalf("max batch must grow with capacity: %d vs %d", small, large)
	}
	if large != 128 {
		t.Fatalf("16 GB should fit batch 128 for this toy CNN, got %d", large)
	}
	// A capacity below the static footprint fits nothing.
	if got := MaxBatch(ops, cands, DefaultPolicy(), 1<<20); got != 0 {
		t.Fatalf("1 MB should fit nothing, got %d", got)
	}
}

func TestFitsDevice(t *testing.T) {
	b := prof.MemBreakdown{FeatureMaps: 4 << 30, Weights: 1 << 30}
	if FitsDevice(b, 4<<30) {
		t.Fatal("5 GB must not fit in 4 GB")
	}
	if !FitsDevice(b, 8<<30) {
		t.Fatal("5 GB must fit in 8 GB")
	}
}

func TestAllocatorSlackIncreasesFootprint(t *testing.T) {
	p := DefaultPolicy()
	base := ProfileOps(cnnOps(), 16, p)
	p.AllocatorSlack = 1.2
	slack := ProfileOps(cnnOps(), 16, p)
	if slack.Total() <= base.Total() {
		t.Fatal("allocator slack must increase the footprint")
	}
}

func TestProfileNetworkLive(t *testing.T) {
	rng := tensor.NewRNG(1)
	net := graph.New("tiny", layers.NewSequential("tiny",
		layers.NewConv2D("conv", 1, 4, 3, 1, 1, rng),
		layers.NewReLU("relu"),
		layers.NewFlatten("flat"),
		layers.NewDense("fc", 4*8*8, 10, rng),
	))
	x := tensor.RandNormal(rng, 0, 1, 2, 1, 8, 8)
	net.Forward(x, true)
	b := ProfileNetwork(net, 0, false)
	if b.Weights == 0 || b.FeatureMaps == 0 {
		t.Fatalf("live profile empty: %s", b)
	}
	if b.Weights != b.WeightGradients {
		t.Fatal("gradients must mirror weights")
	}
	// Optimizer state categorization.
	bd := ProfileNetwork(net, 1000, true)
	if bd.Dynamic != 1000 {
		t.Fatal("dynamic state not reported")
	}
	bs := ProfileNetwork(net, 1000, false)
	if bs.Weights != b.Weights+1000 {
		t.Fatal("static state must fold into weights")
	}
}

func TestBreakdownString(t *testing.T) {
	b := prof.MemBreakdown{FeatureMaps: 1 << 30}
	if !strings.Contains(b.String(), "feature maps 1.00 GB") {
		t.Fatalf("String() = %q", b.String())
	}
}

// MaxBatch returns the largest batch size in candidates whose footprint
// fits in capacity, or 0 if none fit.
func MaxBatch(ops []*kernels.Op, candidates []int, p Policy, capacity int64) int {
	best := 0
	for _, n := range candidates {
		if FitsDevice(ProfileOps(ops, n, p), capacity) && n > best {
			best = n
		}
	}
	return best
}
