package models

import (
	"fmt"

	"tbd/internal/data"
	"tbd/internal/kernels"
)

// inceptionBranchConv appends one conv+bn+relu of an Inception branch.
func inceptionBranchConv(ops *[]*kernels.Op, name string, inC, outC, h, w, k, stride, pad int) (int, int) {
	return convBNRelu(ops, name, inC, outC, h, w, k, stride, pad)
}

// inceptionMix appends a simplified Inception mixed block: four parallel
// branches (1x1, 5x5 via double 3x3, 3x3, pooled 1x1) whose concatenated
// output has outC channels. Branch channel splits follow Szegedy et al.'s
// proportions.
func inceptionMix(ops *[]*kernels.Op, name string, inC, outC, h, w int) {
	q := outC / 4
	// Branch 1: 1x1 (stashes the shared block input once).
	inceptionBranchConv(ops, name+".b1.conv", inC, q, h, w, 1, 1, 0)
	shared := func(from int) {
		// Later branch-entry convs read the same input tensor branch 1
		// already stashed.
		(*ops)[from].SharesInput = true
	}
	// Branch 2: 1x1 -> 3x3 -> 3x3 (factorized 5x5).
	inceptionBranchConv(ops, name+".b2.conv1", inC, q/2, h, w, 1, 1, 0)
	shared(len(*ops) - 3)
	inceptionBranchConv(ops, name+".b2.conv2", q/2, q, h, w, 3, 1, 1)
	inceptionBranchConv(ops, name+".b2.conv3", q, q, h, w, 3, 1, 1)
	// Branch 3: 1x1 -> 3x3.
	inceptionBranchConv(ops, name+".b3.conv1", inC, q/2, h, w, 1, 1, 0)
	shared(len(*ops) - 3)
	inceptionBranchConv(ops, name+".b3.conv2", q/2, q, h, w, 3, 1, 1)
	// Branch 4: pool -> 1x1.
	*ops = append(*ops, &kernels.Op{Name: name + ".b4.pool", Kind: kernels.OpAvgPool, InC: inC, H: h, W: w, K: 3, Stride: 1})
	inceptionBranchConv(ops, name+".b4.conv", inC, q, h-2, w-2, 1, 1, 0)
}

// inceptionReduce appends a grid-size-reduction block halving the spatial
// size while growing channels.
func inceptionReduce(ops *[]*kernels.Op, name string, inC, outC, h, w int) (int, int) {
	half := outC / 2
	oh, ow := inceptionBranchConv(ops, name+".conv3", inC, half, h, w, 3, 2, 0)
	inceptionBranchConv(ops, name+".conv1", inC, half, h, w, 1, 1, 0)
	inceptionBranchConv(ops, name+".conv1b", half, half, h, w, 3, 2, 0)
	*ops = append(*ops, &kernels.Op{Name: name + ".pool", Kind: kernels.OpMaxPool, InC: inC, H: h, W: w, K: 3, Stride: 2})
	return oh, ow
}

// InceptionV3 is the 42-layer Inception image classifier (Szegedy et al.),
// trained on ImageNet1K on all three frameworks.
func InceptionV3() *Model {
	return &Model{
		Name:          "Inception-v3",
		Application:   "Image classification",
		NumLayers:     42,
		DominantLayer: "CONV",
		Frameworks:    []string{"TensorFlow", "MXNet", "CNTK"},
		Dataset:       data.ImageNet1K,
		BatchSizes:    []int{4, 8, 16, 32, 64},
		BatchUnit:     "samples",
		// Figure 4b: MXNet leads, then TF, then CNTK.
		SpeedFactor: map[string]float64{"MXNet": 1.15, "TensorFlow": 0.97, "CNTK": 0.9},
		BuildOps:    buildInceptionV3,
		Twin:        imageTwin(NumericInception),
	}
}

func buildInceptionV3() []*kernels.Op {
	var ops []*kernels.Op
	// Stem: 299x299 input per the Inception-v3 recipe.
	h, w := convBNRelu(&ops, "stem.conv1", 3, 32, 299, 299, 3, 2, 0)
	h, w = convBNRelu(&ops, "stem.conv2", 32, 32, h, w, 3, 1, 0)
	h, w = convBNRelu(&ops, "stem.conv3", 32, 64, h, w, 3, 1, 1)
	ops = append(ops, &kernels.Op{Name: "stem.pool1", Kind: kernels.OpMaxPool, InC: 64, H: h, W: w, K: 3, Stride: 2})
	h, w = (h-3)/2+1, (w-3)/2+1
	h, w = convBNRelu(&ops, "stem.conv4", 64, 80, h, w, 1, 1, 0)
	h, w = convBNRelu(&ops, "stem.conv5", 80, 192, h, w, 3, 1, 0)
	ops = append(ops, &kernels.Op{Name: "stem.pool2", Kind: kernels.OpMaxPool, InC: 192, H: h, W: w, K: 3, Stride: 2})
	h, w = (h-3)/2+1, (w-3)/2+1

	// 3x mixed blocks at 35x35.
	inC := 192
	for i := 0; i < 3; i++ {
		inceptionMix(&ops, fmt.Sprintf("mixedA%d", i+1), inC, 288, h, w)
		inC = 288
	}
	h, w = inceptionReduce(&ops, "reduceA", inC, 768, h, w)
	inC = 768
	// 4x mixed blocks at 17x17.
	for i := 0; i < 4; i++ {
		inceptionMix(&ops, fmt.Sprintf("mixedB%d", i+1), inC, 768, h, w)
	}
	h, w = inceptionReduce(&ops, "reduceB", inC, 1280, h, w)
	inC = 1280
	// 2x mixed blocks at 8x8.
	for i := 0; i < 2; i++ {
		inceptionMix(&ops, fmt.Sprintf("mixedC%d", i+1), inC, 2048, h, w)
		inC = 2048
	}
	ops = append(ops,
		&kernels.Op{Name: "avgpool", Kind: kernels.OpAvgPool, InC: 2048, H: h, W: w, K: h, Stride: h},
		&kernels.Op{Name: "fc", Kind: kernels.OpDense, In: 2048, Out: 1000, Rows: 1},
		&kernels.Op{Name: "loss", Kind: kernels.OpLoss, Rows: 1, Out: 1000},
	)
	return ops
}
