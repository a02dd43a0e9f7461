package models

import (
	"testing"

	"tbd/internal/data"
	"tbd/internal/graph"
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
// ≈ 98 KB, nearly all of it the fresh batch.
func TestTrainConvStepAllocatesNothing(t *testing.T) {
	const batch, classes = 32, 10
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
	for i := 0; i < 5; i++ {
		step()
	}
	if got := testing.AllocsPerRun(20, step); got != 0 {
		t.Errorf("a warmed train_conv step allocates %v objects, want 0", got)
	}
}
