package models

import (
	"fmt"

	"tbd/internal/data"
	"tbd/internal/kernels"
	"tbd/internal/optim"
	"tbd/internal/tensor"
)

// WGAN geometry: Gulrajani et al.'s gradient-penalty WGAN with a
// 4-residual-block generator and 4-residual-block critic on 64x64
// Downsampled ImageNet (the paper's footnote: "a small CNN containing 4
// residual blocks" for each network — 14+14 layers in Table 2).
const (
	wganSize     = 64
	wganChannels = 128
	wganBlocks   = 4
)

// WGAN is the adversarial-learning benchmark (TensorFlow only). One
// training iteration runs both networks: the critic on real and generated
// batches (plus the gradient-penalty pass) and the generator.
func WGAN() *Model {
	return &Model{
		Name:          "WGAN",
		Application:   "Adversarial learning",
		NumLayers:     28,
		DominantLayer: "CONV",
		Frameworks:    []string{"TensorFlow"},
		Dataset:       data.DownsampledImageNet,
		BatchSizes:    []int{4, 8, 16, 32, 64},
		BatchUnit:     "samples",
		BuildOps:      buildWGAN,
		Twin:          &Twin{Metric: "wasserstein estimate", Batch: twinBatch, Train: trainWGANTwin},
	}
}

// trainWGANTwin trains the WGAN twin to generate 4x4 images near one fixed
// template. The curve is each step's Wasserstein estimate.
func trainWGANTwin(rng *tensor.RNG, steps int) []TwinPoint {
	gen, critic := NumericWGAN(rng, 4, 1, 4)
	optG, optC := optim.NewAdam(0.01), optim.NewAdam(0.01)
	tpl := tensor.RandUniform(rng, -0.5, 0.5, 1, 4, 4)
	return curve(steps, 1, func() float64 {
		real := tensor.New(twinBatch, 1, 4, 4)
		for s := 0; s < twinBatch; s++ {
			for j := 0; j < 16; j++ {
				real.Data()[s*16+j] = tpl.Data()[j] + 0.05*float32(rng.Norm())
			}
		}
		return float64(WGANStep(gen, critic, optG, optC, real, rng, 4, 0.1))
	})
}

// wganResBlock appends one pre-activation residual block: two 3x3 convs
// with normalization, plus the identity skip.
func wganResBlock(ops *[]*kernels.Op, name string, c, h, w int) {
	convBNRelu(ops, name+".conv1", c, c, h, w, 3, 1, 1)
	convBNRelu(ops, name+".conv2", c, c, h, w, 3, 1, 1)
	*ops = append(*ops, &kernels.Op{Name: name + ".add", Kind: kernels.OpElemAdd, Channels: c, H: h, W: w})
}

func buildWGAN() []*kernels.Op {
	var ops []*kernels.Op
	// Generator: latent projection then residual blocks at 64x64.
	ops = append(ops, &kernels.Op{Name: "gen.fc", Kind: kernels.OpDense, In: 128, Out: wganChannels * 8 * 8, Rows: 1})
	for i := 0; i < wganBlocks; i++ {
		wganResBlock(&ops, fmt.Sprintf("gen.block%d", i+1), wganChannels, wganSize, wganSize)
	}
	ops = append(ops, &kernels.Op{
		Name: "gen.out", Kind: kernels.OpConv2D,
		InC: wganChannels, OutC: 3, H: wganSize, W: wganSize, K: 3, Stride: 1, Pad: 1,
	})

	// Critic: residual blocks then the scalar score. One iteration
	// evaluates the critic twice (real + fake) plus the gradient-penalty
	// pass; emit those as separate op groups so kernel counts and memory
	// match the real cadence.
	for _, pass := range []string{"crit.real", "crit.fake", "crit.gp"} {
		ops = append(ops, &kernels.Op{
			Name: pass + ".in", Kind: kernels.OpConv2D,
			InC: 3, OutC: wganChannels, H: wganSize, W: wganSize, K: 3, Stride: 1, Pad: 1,
		})
		for i := 0; i < wganBlocks; i++ {
			wganResBlock(&ops, fmt.Sprintf("%s.block%d", pass, i+1), wganChannels, wganSize/2, wganSize/2)
		}
		ops = append(ops, &kernels.Op{Name: pass + ".score", Kind: kernels.OpDense, In: wganChannels * 8 * 8, Out: 1, Rows: 1})
	}
	ops = append(ops, &kernels.Op{Name: "wloss", Kind: kernels.OpLoss, Elems: 4})
	return ops
}
