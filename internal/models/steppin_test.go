package models

import (
	"testing"

	"tbd/internal/graph"
	"tbd/internal/optim"
	"tbd/internal/prof"
	"tbd/internal/tensor"
)

// stepPin is the train_gemm model's weights after three clipped momentum
// steps, and after one more run as two accumulated micro-batches.
type stepPin struct{ steps, accumulated uint64 }

// stepPins were recorded on the commit before the training step stopped
// computing its first layer's input gradient and before a step's first
// gradient write began to overwrite Grad where it used to add to zeros.
// Neither may move a bit of either trajectory.
var stepPins = map[string]stepPin{
	"ref":  {0xe5ff097d4ef521d8, 0x53a8f0f24ec7144b},
	"sse":  {0xe5ff097d4ef521d8, 0x53a8f0f24ec7144b},
	"avx2": {0x151f5c245863013c, 0x5e697709f5c9c3a0},
}

func TestTrainGemmTrajectoryPinned(t *testing.T) {
	eachGemmTierPoisoned(t, func(t *testing.T, tier string) {
		const batch, in, classes = 32, 1024, 10
		rng := tensor.NewRNG(76)
		net := NumericServeMLP(rng, in, 1024, classes)
		opt := optim.NewMomentum(0.01, 0.9)
		x := tensor.RandNormal(rng, 0, 1, batch, in)
		labels := make([]int, batch)
		for i := range labels {
			labels[i] = rng.Intn(classes)
		}
		for i := 0; i < 3; i++ {
			graph.TrainClassifierStep(net, opt, x, labels, 5)
		}
		got := stepPin{steps: net.WeightsHash()}
		half := batch / 2
		graph.TrainClassifierAccumulated(net, opt,
			[]*tensor.Tensor{tensor.FromSlice(x.Data()[:half*in], half, in), tensor.FromSlice(x.Data()[half*in:], half, in)},
			[][]int{labels[:half], labels[half:]}, 5)
		got.accumulated = net.WeightsHash()
		if want := stepPins[tier]; got != want {
			t.Errorf("%s: weights %#x after 3 steps, %#x after the accumulated one; pinned %#x / %#x",
				tier, got.steps, got.accumulated, want.steps, want.accumulated)
		}
	})
}

// wganPins are the generator's and critic's weights after five WGAN steps,
// recorded on the same commit: the critic takes two backward passes under
// one ZeroGrads (the first write lands in Grad, the second adds), and the
// generator step reads the critic's input gradient, which must still be
// computed.
var wganPins = map[string]uint64{
	"ref":  0xadc64d1627e82912,
	"sse":  0xadc64d1627e82912,
	"avx2": 0x52bd427ce752a133,
}

func TestWGANTrajectoryPinned(t *testing.T) {
	eachGemmTierPoisoned(t, func(t *testing.T, tier string) {
		rng := tensor.NewRNG(77)
		gen, critic := NumericWGAN(rng, 4, 1, 4)
		optG, optC := optim.NewAdam(0.01), optim.NewAdam(0.01)
		for i := 0; i < 5; i++ {
			WGANStep(gen, critic, optG, optC, tensor.RandUniform(rng, -1, 1, 16, 1, 4, 4), rng, 4, 0.1)
		}
		if got := paramsHash(append(gen.Params(), critic.Params()...)); got != wganPins[tier] {
			t.Errorf("%s: weights %#x, pinned %#x", tier, got, wganPins[tier])
		}
	})
}

// detectorPins are the Faster R-CNN twin's weights after five steps,
// recorded while it was a trunk and two heads stepped by hand. As one
// network trained through graph's step it must reproduce them.
var detectorPins = map[string]uint64{
	"ref":  0xc0a2b0a5e8cbb470,
	"sse":  0xc0a2b0a5e8cbb470,
	"avx2": 0x53ec65f5196b9f47,
}

func TestDetectorTrajectoryPinned(t *testing.T) {
	eachGemmTierPoisoned(t, func(t *testing.T, tier string) {
		rng := tensor.NewRNG(78)
		net := NumericDetector(rng, 1, 8, 4)
		opt := optim.NewAdam(0.01)
		for i := 0; i < 5; i++ {
			x := tensor.RandUniform(rng, 0, 1, 16, 1, 8, 8)
			cls := make([]int, 16)
			box := make([]float32, 2*16)
			for j := range cls {
				cls[j] = rng.Intn(4)
				box[2*j], box[2*j+1] = rng.Float32(), rng.Float32()
			}
			graph.TrainStep(net, opt, x, detectorLoss(cls, box), 0)
		}
		if got := paramsHash(net.Params()); got != detectorPins[tier] {
			t.Errorf("%s: weights %#x, pinned %#x", tier, got, detectorPins[tier])
		}
	})
}

// TestTwinStepsOpenStepSpans profiles three steps of every twin and counts
// the step spans the what-if replay keys on: one per step, and one per
// update of every A3C worker.
func TestTwinStepsOpenStepSpans(t *testing.T) {
	for _, m := range append(Suite(), Extensions()...) {
		prof.Enable()
		m.Twin.Train(tensor.NewRNG(1), 3)
		prof.Disable()
		steps := 0
		for _, r := range prof.Current(prof.Meta{}).Ranks[0].Records {
			if r.Name == "step" && r.Cat == prof.CatPhase {
				steps++
			}
		}
		want := 3
		if m.Name == "A3C" {
			want *= a3cTwinWorkers
		}
		if steps != want {
			t.Errorf("%s: %d step spans in three steps, want %d", m.Name, steps, want)
		}
	}
}
