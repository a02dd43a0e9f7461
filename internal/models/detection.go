package models

import (
	"tbd/internal/data"
	"tbd/internal/graph"
	"tbd/internal/kernels"
	"tbd/internal/optim"
	"tbd/internal/tensor"
)

// FasterRCNN is the object-detection benchmark: a two-network detector
// (region proposal network + classification head) sharing a ResNet-101
// convolution stack, trained on Pascal VOC 2007. The paper trains it at a
// fixed batch of one image; host-side proposal handling makes it the
// second-highest CPU consumer in Figure 7 (13.25% on TensorFlow).
func FasterRCNN() *Model {
	return &Model{
		Name:          "Faster R-CNN",
		Application:   "Object detection",
		NumLayers:     101,
		DominantLayer: "CONV",
		Frameworks:    []string{"TensorFlow", "MXNet"},
		Dataset:       data.PascalVOC2007,
		BatchSizes:    []int{1},
		BatchUnit:     "samples",
		SpeedFactor:   map[string]float64{"TensorFlow": 0.97, "MXNet": 1.0},
		HostCPUSecPerSample: map[string]float64{
			// Proposal generation, NMS, and ROI bookkeeping run on the
			// host; TensorFlow's implementation keeps more of it in
			// Python (Figure 7: 13.25% vs 3.64%).
			"TensorFlow": 1.1,
			"MXNet":      0.45,
		},
		BuildOps: buildFasterRCNN,
		Twin:     detectorTwin,
	}
}

// detectorTwin is the detection twin Faster R-CNN and YOLO9000 share. Its
// curve is each step's classification accuracy.
var detectorTwin = &Twin{Metric: "detection accuracy", HigherIsBetter: true, Batch: twinBatch,
	Train: func(rng *tensor.RNG, steps int) []TwinPoint {
		net := NumericDetector(rng, 1, 8, 4)
		opt := optim.NewAdam(0.01)
		return curve(steps, 1, func() float64 {
			x, loss := detectionBatch(rng, twinBatch)
			return graph.TrainStep(net, opt, x, loss, 0).Accuracy
		})
	}}

// detectionBatch draws n 8x8 images, each a 3x3 blob centred in one
// quadrant, and the detector's loss on them: the quadrant is the object
// class and the blob's centre the box.
func detectionBatch(rng *tensor.RNG, n int) (*tensor.Tensor, graph.Loss) {
	x := tensor.New(n, 1, 8, 8)
	cls := make([]int, n)
	box := make([]float32, 2*n)
	for i := 0; i < n; i++ {
		qx, qy := rng.Intn(2), rng.Intn(2)
		cls[i] = qy*2 + qx
		cx, cy := 2+4*qx, 2+4*qy
		for dy := -1; dy <= 1; dy++ {
			for dx := -1; dx <= 1; dx++ {
				x.Set(1, i, 0, cy+dy, cx+dx)
			}
		}
		box[2*i] = float32(cx) / 8
		box[2*i+1] = float32(cy) / 8
	}
	return x, detectorLoss(cls, box)
}

// detectorLoss is the detector's multi-task loss over its [N, classes+2]
// output: softmax cross-entropy of the class columns against cls plus the
// mean squared error of the last two columns against the box centres. The
// accuracy is the classification's.
func detectorLoss(cls []int, box []float32) graph.Loss {
	return func(_ int, out *tensor.Tensor) (float32, *tensor.Tensor, float64) {
		n, w := out.Dim(0), out.Dim(1)
		k := w - 2 // classes
		logits := tensor.AcquireDirty(n, k)
		for i := 0; i < n; i++ {
			copy(logits.Data()[i*k:(i+1)*k], out.Data()[i*w:])
		}
		clsLoss, gCls := tensor.CrossEntropy(logits, cls)
		acc := tensor.Accuracy(logits, cls)
		grad := tensor.AcquireDirty(n, w)
		var boxLoss float64
		for i := 0; i < n; i++ {
			copy(grad.Data()[i*w:], gCls.Data()[i*k:(i+1)*k])
			for j := 0; j < 2; j++ {
				d := out.Data()[i*w+k+j] - box[2*i+j]
				boxLoss += float64(d) * float64(d)
				grad.Data()[i*w+k+j] = 2 * d / float32(2*n)
			}
		}
		logits.Release()
		gCls.Release()
		return clsLoss + float32(boxLoss)/float32(2*n), grad, acc
	}
}

const (
	rcnnProposals = 256 // sampled ROIs per image for the detection head
	rcnnClasses   = 21  // Pascal VOC's 20 classes + background
)

func buildFasterRCNN() []*kernels.Op {
	// Shared convolution stack: ResNet-101 stages 1-4 on the detector's
	// upscaled input (~600x1000 for VOC images).
	ops := resNetOps([4]int{3, 4, 23, 3}, 600, 1000, false)

	// Region proposal network on the stage-4 feature map (~38x63 at
	// 1/16 scale).
	fh, fw := 38, 63
	ops = append(ops,
		&kernels.Op{Name: "rpn.conv", Kind: kernels.OpConv2D, InC: 1024, OutC: 512, H: fh, W: fw, K: 3, Stride: 1, Pad: 1},
		&kernels.Op{Name: "rpn.relu", Kind: kernels.OpActivation, Channels: 512, H: fh, W: fw},
		&kernels.Op{Name: "rpn.cls", Kind: kernels.OpConv2D, InC: 512, OutC: 18, H: fh, W: fw, K: 1, Stride: 1, Pad: 0},
		&kernels.Op{Name: "rpn.bbox", Kind: kernels.OpConv2D, InC: 512, OutC: 36, H: fh, W: fw, K: 1, Stride: 1, Pad: 0},
		&kernels.Op{Name: "rpn.loss", Kind: kernels.OpLoss, Elems: fh * fw * 18},
	)

	// ROI pooling + per-proposal detection head (dense over pooled 7x7
	// features through the stage-5 equivalent).
	ops = append(ops,
		&kernels.Op{Name: "roi.pool", Kind: kernels.OpAvgPool, InC: 1024, H: fh, W: fw, K: 2, Stride: 2},
		&kernels.Op{Name: "head.fc1", Kind: kernels.OpDense, In: 1024 * 7 * 7, Out: 2048, Rows: rcnnProposals},
		&kernels.Op{Name: "head.relu1", Kind: kernels.OpActivation, Elems: rcnnProposals * 2048},
		&kernels.Op{Name: "head.cls", Kind: kernels.OpDense, In: 2048, Out: rcnnClasses, Rows: rcnnProposals},
		&kernels.Op{Name: "head.bbox", Kind: kernels.OpDense, In: 2048, Out: 4 * rcnnClasses, Rows: rcnnProposals},
		&kernels.Op{Name: "head.loss", Kind: kernels.OpLoss, Rows: rcnnProposals, Out: rcnnClasses},
	)
	return ops
}
