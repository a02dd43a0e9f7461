package models

import (
	"tbd/internal/data"
	"tbd/internal/kernels"
	"tbd/internal/tensor"
)

// A3C is the deep-reinforcement-learning benchmark (Mnih et al.'s
// asynchronous advantage actor-critic, MXNet implementation): a 4-layer
// network over stacked Atari frames. Its tiny kernels leave the GPU
// mostly idle while the environment simulation makes it the highest CPU
// consumer in the suite (Figure 7: 28.75%).
func A3C() *Model {
	return &Model{
		Name:          "A3C",
		Application:   "Deep reinforcement learning",
		NumLayers:     4,
		DominantLayer: "CONV",
		Frameworks:    []string{"MXNet"},
		Dataset:       data.Atari2600,
		BatchSizes:    []int{8, 16, 32, 64, 128},
		BatchUnit:     "samples",
		// Every training sample requires emulator steps on the host,
		// spread over the asynchronous actor threads.
		HostCPUSecPerSample: map[string]float64{"MXNet": 5e-2},
		PipelineWorkers:     16,
		// Rollout-collection barrier per update.
		IterHostOverheadSec: 0.8,
		BuildOps:            buildA3C,
		Twin: &Twin{Metric: "game score", HigherIsBetter: true, Batch: DefaultA3CConfig().RolloutLen,
			Train: trainA3CTwin},
	}
}

// a3cTwinWorkers is the A3C twin's asynchronous workers.
const a3cTwinWorkers = 3

// trainA3CTwin trains the A3C twin on Pong, steps updates per worker. The
// curve is eight evaluation episodes' scores in training order.
func trainA3CTwin(rng *tensor.RNG, steps int) []TwinPoint {
	cfg := DefaultA3CConfig()
	cfg.Seed = rng.Uint64()
	cfg.Workers = a3cTwinWorkers
	cfg.Updates = steps
	cfg.Checkpoints = 8
	cfg.EvalEpisodeCap = 6000
	return TrainA3C(cfg).Curve
}

func buildA3C() []*kernels.Op {
	var ops []*kernels.Op
	// Mnih-style trunk: 16 8x8/4 conv, 32 4x4/2 conv, dense 256.
	h, w := convBNRelu(&ops, "conv1", 4, 16, 84, 84, 8, 4, 0)
	h, w = convBNRelu(&ops, "conv2", 16, 32, h, w, 4, 2, 0)
	ops = append(ops,
		&kernels.Op{Name: "fc", Kind: kernels.OpDense, In: 32 * h * w, Out: 256, Rows: 1},
		&kernels.Op{Name: "fc.relu", Kind: kernels.OpActivation, Elems: 256},
		// Policy and value heads.
		&kernels.Op{Name: "policy", Kind: kernels.OpDense, In: 256, Out: 3, Rows: 1},
		&kernels.Op{Name: "value", Kind: kernels.OpDense, In: 256, Out: 1, Rows: 1},
		&kernels.Op{Name: "loss", Kind: kernels.OpLoss, Elems: 4},
	)
	return ops
}
