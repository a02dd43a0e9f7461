package models

import (
	"testing"

	"tbd/internal/data"
	"tbd/internal/graph"
	"tbd/internal/layers"
	"tbd/internal/optim"
	"tbd/internal/tensor"
)

// TestTrainConvStepAllocatesNothing pins the zero-allocation invariant on
// the bench's train_conv configuration: the ResNet twin at batch 32 with
// Adam and gradient clipping, fed by a one-worker data pipeline. A warmed
// step — the pipeline's worker refilling a recycled batch included, since
// AllocsPerRun counts the whole process — takes nothing from the Go
// allocator, so the heap never grows past the live set and no collection
// runs in steady state. The parent commit allocated 59 objects a step,
// ≈ 98 KB, nearly all of it the fresh batch. The same holds with the step
// split across two and three workers, where the worker pool's closures
// once cost 270 objects a step.
func TestTrainConvStepAllocatesNothing(t *testing.T) {
	const batch, classes = 32, 10
	defer tensor.SetParallelism(1)
	net := NumericResNet(tensor.NewRNG(1), 3, 16, classes)
	opt := optim.NewAdam(0.01)
	pipe := data.NewImagePipeline(1, 2, batch, func(int) *data.ImageSource {
		return data.NewImageSource(tensor.NewRNG(7), 3, 16, 16, classes, 0.3)
	})
	defer pipe.Close()
	step := func() {
		b := pipe.Next()
		graph.TrainClassifierStep(net, opt, b.X, b.Labels, 5)
	}
	for _, workers := range []int{1, 2, 3} {
		tensor.SetParallelism(workers)
		for i := 0; i < 5; i++ {
			step()
		}
		if got := testing.AllocsPerRun(20, step); got != 0 {
			t.Errorf("a warmed train_conv step at %d workers allocates %v objects, want 0", workers, got)
		}
	}
}

// TestTrainConvStepHoldsNoBatchLowering pins where the convolution's
// lowering lives in a warmed train_conv step: in per-image pack scratch,
// never in a batch-wide [N, C·kh·kw, oh·ow] buffer. No convolution stashes
// more than its input (live), the tensor pool has no buffer as large as
// the smallest such lowering, [32, 27, 256] for the 3->8 layer, and the
// pack scratch parked between steps totals less than one (pooled). The
// parent commit stashed four lowerings and parked the input gradient's.
func TestTrainConvStepHoldsNoBatchLowering(t *testing.T) {
	const batch, classes, size = 32, 10, 16
	prev := tensor.SetPooling(false) // drops every buffer earlier tests parked
	tensor.SetPooling(true)
	defer tensor.SetPooling(prev)
	net := NumericResNet(tensor.NewRNG(1), 3, size, classes)
	opt := optim.NewAdam(0.01)
	b := data.NewImageSource(tensor.NewRNG(7), 3, size, size, classes, 0.3).Batch(batch)
	for i := 0; i < 3; i++ {
		graph.TrainClassifierStep(net, opt, b.X, b.Labels, 5)
	}
	var convs int
	var walk func(l layers.Layer)
	walk = func(l layers.Layer) {
		switch l := l.(type) {
		case *layers.Sequential:
			for _, c := range l.Layers {
				walk(c)
			}
		case *layers.Residual:
			walk(l.Body)
			if l.Proj != nil {
				walk(l.Proj)
			}
		case *layers.Conv2D:
			convs++
			if got, want := l.StashBytes(), int64(4*batch*l.InC*size*size); got != want {
				t.Errorf("%s stashes %d bytes, want its input's %d", l.Name(), got, want)
			}
		}
	}
	walk(net.Root)
	if convs != 5 {
		t.Fatalf("walked %d convolutions, the twin has 5", convs)
	}
	const lowering = batch * 3 * 3 * 3 * size * size // floats
	if _, pack := tensor.PoolRetainedBytes(); pack >= 4*lowering {
		t.Errorf("pack scratch parked between steps: %d bytes, want less than one %d-byte lowering", pack, 4*lowering)
	}
	start := tensor.PoolStatsSnapshot()
	tensor.Acquire(lowering)
	if d := tensor.PoolStatsSnapshot().Sub(start); d.Hits != 0 {
		t.Errorf("the tensor pool parks a buffer of at least %d floats, a batch-wide lowering's size", lowering)
	}
}
