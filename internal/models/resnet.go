package models

import (
	"fmt"

	"tbd/internal/data"
	"tbd/internal/kernels"
)

// convBNRelu appends a conv + batch-norm + ReLU triple, the basic CNN
// unit, returning the output spatial size.
func convBNRelu(ops *[]*kernels.Op, name string, inC, outC, h, w, k, stride, pad int) (int, int) {
	*ops = append(*ops, &kernels.Op{
		Name: name, Kind: kernels.OpConv2D,
		InC: inC, OutC: outC, H: h, W: w, K: k, Stride: stride, Pad: pad,
	})
	oh := (h+2*pad-k)/stride + 1
	ow := (w+2*pad-k)/stride + 1
	*ops = append(*ops,
		&kernels.Op{Name: name + ".bn", Kind: kernels.OpBatchNorm, Channels: outC, H: oh, W: ow},
		&kernels.Op{Name: name + ".relu", Kind: kernels.OpActivation, Channels: outC, H: oh, W: ow},
	)
	return oh, ow
}

// bottleneck appends one ResNet bottleneck block (1x1 reduce, 3x3, 1x1
// expand, optional projection shortcut) and returns the output size.
func bottleneck(ops *[]*kernels.Op, name string, inC, midC, outC, h, w, stride int, project bool) (int, int) {
	oh, ow := convBNRelu(ops, name+".conv1", inC, midC, h, w, 1, 1, 0)
	oh, ow = convBNRelu(ops, name+".conv2", midC, midC, oh, ow, 3, stride, 1)
	*ops = append(*ops, &kernels.Op{
		Name: name + ".conv3", Kind: kernels.OpConv2D,
		InC: midC, OutC: outC, H: oh, W: ow, K: 1, Stride: 1, Pad: 0,
	})
	*ops = append(*ops, &kernels.Op{Name: name + ".bn3", Kind: kernels.OpBatchNorm, Channels: outC, H: oh, W: ow})
	if project {
		*ops = append(*ops, &kernels.Op{
			Name: name + ".proj", Kind: kernels.OpConv2D,
			InC: inC, OutC: outC, H: h, W: w, K: 1, Stride: stride, Pad: 0,
		})
	}
	*ops = append(*ops,
		&kernels.Op{Name: name + ".add", Kind: kernels.OpElemAdd, Channels: outC, H: oh, W: ow},
		&kernels.Op{Name: name + ".relu", Kind: kernels.OpActivation, Channels: outC, H: oh, W: ow},
	)
	return oh, ow
}

// resNetOps builds a ResNet op graph with the given stage depths (ResNet-50
// is {3,4,6,3}; the Faster R-CNN backbone uses ResNet-101's {3,4,23,3}).
// inputH/inputW allow the detector's larger images.
func resNetOps(blocks [4]int, inputH, inputW int, includeHead bool) []*kernels.Op {
	var ops []*kernels.Op
	h, w := convBNRelu(&ops, "conv1", 3, 64, inputH, inputW, 7, 2, 3)
	ops = append(ops, &kernels.Op{Name: "pool1", Kind: kernels.OpMaxPool, InC: 64, H: h, W: w, K: 3, Stride: 2})
	h, w = (h-3)/2+1, (w-3)/2+1

	inC := 64
	mids := [4]int{64, 128, 256, 512}
	outs := [4]int{256, 512, 1024, 2048}
	for stage := 0; stage < 4; stage++ {
		for b := 0; b < blocks[stage]; b++ {
			stride := 1
			if stage > 0 && b == 0 {
				stride = 2
			}
			name := fmt.Sprintf("stage%d.block%d", stage+1, b+1)
			h, w = bottleneck(&ops, name, inC, mids[stage], outs[stage], h, w, stride, b == 0)
			inC = outs[stage]
		}
	}
	if includeHead {
		ops = append(ops,
			&kernels.Op{Name: "avgpool", Kind: kernels.OpAvgPool, InC: 2048, H: h, W: w, K: h, Stride: h},
			&kernels.Op{Name: "fc", Kind: kernels.OpDense, In: 2048, Out: 1000, Rows: 1},
			&kernels.Op{Name: "loss", Kind: kernels.OpLoss, Rows: 1, Out: 1000},
		)
	}
	return ops
}

// ResNet50 is the 50-layer residual image classifier (He et al.), trained
// on ImageNet1K in the paper on all three frameworks.
func ResNet50() *Model {
	return &Model{
		Name:          "ResNet-50",
		Application:   "Image classification",
		NumLayers:     50,
		DominantLayer: "CONV",
		Frameworks:    []string{"TensorFlow", "MXNet", "CNTK"},
		Dataset:       data.ImageNet1K,
		BatchSizes:    []int{4, 8, 16, 32, 64},
		BatchUnit:     "samples",
		// Observation 3 / Figure 4a: MXNet's image models lead.
		SpeedFactor: map[string]float64{"MXNet": 1.12, "TensorFlow": 1.0, "CNTK": 0.97},
		BuildOps: func() []*kernels.Op {
			// The suite trains at 224x224 crops of the 256x256 corpus.
			return resNetOps([4]int{3, 4, 6, 3}, 224, 224, true)
		},
		Twin: imageTwin(NumericResNet),
	}
}
