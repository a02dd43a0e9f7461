package models

import (
	"tbd/internal/data"
	"tbd/internal/graph"
	"tbd/internal/optim"
	"tbd/internal/tensor"
)

// Twin declares a benchmark's numeric twin: the scaled-down network that
// really trains, on the synthetic stand-in for its Table 3 corpus. Scale
// substitutions are documented in DESIGN.md.
type Twin struct {
	// Metric names the curve's values; HigherIsBetter says which way is
	// improvement (accuracy and score up, CTC loss and the Wasserstein
	// estimate down).
	Metric         string
	HigherIsBetter bool
	// Batch is the samples one step trains on.
	Batch int
	// Train builds the twin and its data from rng, trains it for steps
	// updates (each worker's, for A3C) and returns its curve.
	Train func(rng *tensor.RNG, steps int) []TwinPoint
}

// TwinPoint is one recorded sample of a twin's curve.
type TwinPoint struct {
	// FracDone is the fraction of the training run completed.
	FracDone float64
	Value    float64
}

// twinBatch is the batch every twin but Deep Speech 2's and A3C's draws.
const twinBatch = 16

// curve runs steps training steps and records each step's value, averaged
// over consecutive windows of every steps.
func curve(steps, every int, step func() float64) []TwinPoint {
	var pts []TwinPoint
	var window float64
	var count int
	for i := 0; i < steps; i++ {
		window += step()
		count++
		if (i+1)%every == 0 {
			pts = append(pts, TwinPoint{FracDone: float64(i+1) / float64(steps), Value: window / float64(count)})
			window, count = 0, 0
		}
	}
	return pts
}

// classifierCurve trains net on next's batches with softmax
// cross-entropy; the curve is the training accuracy averaged over 24
// windows.
func classifierCurve(net *graph.Network, steps int, next func() (*tensor.Tensor, []int)) []TwinPoint {
	opt := optim.NewAdam(0.01)
	return curve(steps, max(steps/24, 1), func() float64 {
		x, labels := next()
		return graph.TrainClassifierStep(net, opt, x, labels, 5).Accuracy
	})
}

// imageTwin is a classifier twin on four classes of 8x8 one-channel
// images.
func imageTwin(build func(rng *tensor.RNG, c, size, classes int) *graph.Network) *Twin {
	return &Twin{Metric: "top-1 accuracy", HigherIsBetter: true, Batch: twinBatch, Train: func(rng *tensor.RNG, steps int) []TwinPoint {
		src := data.NewImageSource(rng, 1, 8, 8, 4, 0.3)
		return classifierCurve(build(rng, 1, 8, 4), steps, func() (*tensor.Tensor, []int) {
			b := src.Batch(twinBatch)
			return b.X, b.Labels
		})
	}}
}

// translationTwin is a classifier twin on six-token sentences over a
// twelve-word vocabulary, scored per token.
func translationTwin(build func(rng *tensor.RNG) *graph.Network) *Twin {
	return &Twin{Metric: "token accuracy", HigherIsBetter: true, Batch: twinBatch, Train: func(rng *tensor.RNG, steps int) []TwinPoint {
		src := data.NewTranslationSource(rng, 12, 6)
		return classifierCurve(build(rng), steps, func() (*tensor.Tensor, []int) {
			b := src.Batch(twinBatch)
			return b.Src, b.Targets
		})
	}}
}
