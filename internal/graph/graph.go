// Package graph ties layers into trainable networks and provides the
// train-step drivers (forward, loss, backward, update) used by the numeric
// twins of the TBD benchmark models.
package graph

import (
	"fmt"

	"tbd/internal/layers"
	"tbd/internal/optim"
	"tbd/internal/prof"
	"tbd/internal/tensor"
)

// sampleStepMemory feeds the profiler's memory watermark with the paper's
// five-category breakdown at the point of peak liveness in a training step:
// right after backward, when weights, weight gradients, stashed feature
// maps, pool workspace, and optimizer state all coexist.
func sampleStepMemory(n *Network, opt optim.Optimizer) {
	if !prof.Enabled() {
		return
	}
	_, packBytes := tensor.PoolRetainedBytes()
	prof.SampleMemory(n.WeightBytes(), n.GradientBytes(), n.StashBytes(), packBytes, opt.StateBytes())
}

// Network is a trainable model: a root layer (usually a container) plus
// bookkeeping for parameters and memory accounting.
type Network struct {
	Name string
	Root layers.Layer

	// params caches the flattened parameter list. Walking the layer tree
	// appends dozens of small slices per call, and the training step asks
	// for the list every iteration; networks are assembled before training
	// starts, so caching after the first walk is safe.
	params []*layers.Param
	// flatValues and flatGrads back every Param once FlatParams has run.
	flatValues, flatGrads []float32
	// frozen lists the weights Freeze replaced, in Params order: what a
	// replica adopts in ShareParamsFrom.
	frozen []frozenWeight
}

// frozenWeight is one frozen weight matrix and the name of the Param it
// replaced.
type frozenWeight struct {
	name string
	w    *tensor.FrozenMatrix
}

// New wraps a root layer as a network.
func New(name string, root layers.Layer) *Network {
	return &Network{Name: name, Root: root}
}

// Forward runs the network. With train false it runs in evaluation
// mode: no feature maps are stashed for backward (StashBytes stays zero)
// and batch-norm layers use their running statistics, the frozen path
// the serving layer builds on. The result is owned by the network's
// layers and valid only until the next forward call, and Forward is not
// safe for concurrent use.
func (n *Network) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	return n.Root.Forward(x, train)
}

// Backward propagates gradients.
func (n *Network) Backward(gy *tensor.Tensor) *tensor.Tensor {
	return n.Root.Backward(gy)
}

// BackwardParams is Backward for a caller that wants only the parameter
// gradients: the network's first layer computes no input gradient.
func (n *Network) BackwardParams(gy *tensor.Tensor) { layers.BackwardParams(n.Root, gy) }

// Params returns all trainable parameters. The list is computed on the
// first call and cached; layers must not be added to the network after
// training begins.
func (n *Network) Params() []*layers.Param {
	if n.params == nil {
		n.params = n.Root.Params()
	}
	return n.params
}

// ParamCount returns the number of trainable scalars.
func (n *Network) ParamCount() int64 { return layers.ParamCount(n.Params()) }

// Freeze replaces every freezable weight matrix (each Dense layer's W,
// see layers.Freezer) with its frozen form, fp16 storage when half, and
// reports whether the network supports freezing. Frozen matrices leave
// the parameter list, so ParamCount and the gradient footprint drop to
// the still-trainable remainder. Irreversible: training a frozen network
// panics and a checkpoint no longer loads into it. A second call is a
// no-op.
func (n *Network) Freeze(half bool) bool {
	f, ok := n.Root.(layers.Freezer)
	if !ok {
		return false
	}
	f.Freeze(func(p *layers.Param) *tensor.FrozenMatrix {
		w := tensor.Freeze(p.Value, half)
		n.frozen = append(n.frozen, frozenWeight{p.Name, w})
		return w
	})
	n.params = nil
	return true
}

// Frozen reports whether any of the network's weights are frozen.
func (n *Network) Frozen() bool { return len(n.frozen) > 0 }

// WeightBytes returns the weight memory footprint, storage-format aware:
// a frozen matrix counts its own bytes.
func (n *Network) WeightBytes() int64 {
	if s, ok := n.Root.(layers.WeightSizer); ok {
		return s.ResidentWeightBytes()
	}
	return n.ParamCount() * 4
}

// GradientBytes returns the weight-gradient footprint (same as weights).
func (n *Network) GradientBytes() int64 { return n.ParamCount() * 4 }

// StashBytes returns the feature-map bytes currently cached for backward.
func (n *Network) StashBytes() int64 { return n.Root.StashBytes() }

// StepResult reports one training step.
type StepResult struct {
	Loss     float32
	Accuracy float64
	GradNorm float32
}

// Loss scores micro-batch i of a step from the network's output for it.
// It returns the micro-batch's mean loss, the loss gradient — a buffer of
// the step's own, released after backward, holding out's elements in
// out's order — and the micro-batch's accuracy (0 for a loss without one).
type Loss func(i int, out *tensor.Tensor) (loss float32, grad *tensor.Tensor, acc float64)

// TrainStep runs one step on any loss: forward, loss, backward, optional
// gradient clipping (clip <= 0 disables), and an optimizer update.
func TrainStep(n *Network, opt optim.Optimizer, x *tensor.Tensor, loss Loss, clip float32) StepResult {
	return trainUpdated(n, opt, []*tensor.Tensor{x}, loss, clip)
}

// TrainClassifierStep runs one supervised step: forward, softmax
// cross-entropy against labels, backward, optional gradient clipping
// (clip <= 0 disables), and an optimizer update.
func TrainClassifierStep(n *Network, opt optim.Optimizer, x *tensor.Tensor, labels []int, clip float32) StepResult {
	return TrainClassifierAccumulated(n, opt, []*tensor.Tensor{x}, [][]int{labels}, clip)
}

// TrainClassifierAccumulated runs one effective training step as k
// micro-batches with gradient accumulation: the same update as one big
// batch, at 1/k the peak feature-map memory — the batch/memory trade
// behind the paper's Observation 12. microX/microLabels hold the k
// shards; their sizes must be equal.
func TrainClassifierAccumulated(n *Network, opt optim.Optimizer, microX []*tensor.Tensor, microLabels [][]int, clip float32) StepResult {
	return trainUpdated(n, opt, microX, crossEntropy(microLabels).loss, clip)
}

// TrainClassifierExchanged is the step of one data-parallel rank: the
// gradient half of TrainClassifierStep on this rank's shard, then exchange
// in place of the local update. exchange leaves the parameters updated
// (all-reduce then step, or push then load); its error ends the step.
func TrainClassifierExchanged(n *Network, opt optim.Optimizer, x *tensor.Tensor, labels []int, exchange func(params []*layers.Param) error) (StepResult, error) {
	return trainStep(n, opt, []*tensor.Tensor{x}, crossEntropy([][]int{labels}).loss, 0, "phase.sync", exchange)
}

// trainUpdated is trainStep with the optimizer's update as its apply phase.
func trainUpdated(n *Network, opt optim.Optimizer, xs []*tensor.Tensor, loss Loss, clip float32) StepResult {
	res, _ := trainStep(n, opt, xs, loss, clip, "phase.update", func(params []*layers.Param) error {
		opt.Step(params)
		return nil
	})
	return res
}

// crossEntropy is the classifier drivers' loss: softmax cross-entropy of
// micro-batch i against its labels. An output that is not one row per
// label (a sequence model's [N, T, V]) is viewed as [len(labels), V].
type crossEntropy [][]int

func (c crossEntropy) loss(i int, out *tensor.Tensor) (float32, *tensor.Tensor, float64) {
	labels := c[i]
	logits, rows := out, len(labels)
	if out.Rank() != 2 || out.Dim(0) != rows {
		if rows == 0 || out.Numel()%rows != 0 {
			panic(fmt.Sprintf("graph: output %v incompatible with %d labels", out.Shape(), rows))
		}
		logits = out.Reshape(rows, out.Numel()/rows)
	}
	loss, grad := tensor.CrossEntropy(logits, labels)
	return loss, grad, tensor.Accuracy(logits, labels)
}

// trainStep is the one training step in the tree. It owns the gradient
// reset, the span tree the what-if replay keys on (step › phase.forward,
// phase.loss, phase.backward per micro-batch, then the apply phase), the
// loss-gradient release and the memory-watermark sample; apply decides
// what becomes of the finished gradients. xs holds k equal-sized
// micro-batches whose gradients are averaged.
func trainStep(n *Network, opt optim.Optimizer, xs []*tensor.Tensor, loss Loss, clip float32,
	phase string, apply func(params []*layers.Param) error) (StepResult, error) {
	k := len(xs)
	if k == 0 {
		panic("graph: a step of no micro-batches")
	}
	step := prof.Begin(prof.CatPhase, "step")
	params := n.Params()
	optim.ZeroGrads(params)
	var lossSum, accSum float64
	for i, x := range xs {
		sp := prof.BeginChild(&step, prof.CatPhase, "phase.forward")
		out := n.Forward(x, true)
		sp.End()
		sp = prof.BeginChild(&step, prof.CatPhase, "phase.loss")
		l, grad, acc := loss(i, out)
		sp.End()
		if k > 1 {
			// A loss averages within its micro-batch; scale by 1/k so the
			// accumulated gradient averages over the full batch.
			grad.ScaleInPlace(1 / float32(k))
		}
		gy := grad
		if !grad.SameShape(out) {
			gy = grad.Reshape(out.Shape()...)
		}
		sp = prof.BeginChild(&step, prof.CatPhase, "phase.backward")
		n.BackwardParams(gy)
		sp.End()
		// The loss gradient is this step's own buffer and dead after backward;
		// the output and input gradient belong to the layers that produced
		// them and are recycled on the next forward.
		grad.Release()
		// Post-backward is the step's liveness peak: stashed feature maps are
		// still held, gradients are full, and optimizer state exists.
		sampleStepMemory(n, opt)
		lossSum += float64(l)
		accSum += acc
	}
	var norm float32
	if clip > 0 {
		norm = optim.ClipGradNorm(params, clip)
	}
	sp := prof.BeginChild(&step, prof.CatPhase, phase)
	err := apply(params)
	sp.End()
	step.End()
	return StepResult{
		Loss:     float32(lossSum / float64(k)),
		Accuracy: accSum / float64(k),
		GradNorm: norm,
	}, err
}
