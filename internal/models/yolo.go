package models

import (
	"fmt"

	"tbd/internal/data"
	"tbd/internal/kernels"
)

// YOLO9000 is the real-time detector the paper names as planned future
// work for the suite ("we plan to add YOLO9000..."). It is provided as an
// extension benchmark: a YOLOv2 graph with the Darknet-19 backbone
// (19 conv layers) and the anchor-box detection head, on Pascal VOC at
// the standard 416x416 training resolution. Unlike Faster R-CNN it is a
// single-network detector, so it trains at larger batches with no
// host-side proposal stage.
func YOLO9000() *Model {
	return &Model{
		Name:          "YOLO9000",
		Application:   "Object detection",
		NumLayers:     19,
		DominantLayer: "CONV",
		Frameworks:    []string{"TensorFlow", "MXNet"},
		Dataset:       data.PascalVOC2007,
		BatchSizes:    []int{4, 8, 16, 32},
		BatchUnit:     "samples",
		BuildOps:      buildYOLO9000,
		Twin:          detectorTwin,
	}
}

// darknetBlock appends conv/bn/relu triples with interleaved 1x1
// bottlenecks, the Darknet-19 stage pattern.
func darknetBlock(ops *[]*kernels.Op, name string, inC, outC, h, w, reps int) (int, int) {
	c := inC
	for i := 0; i < reps; i++ {
		k, oc := 3, outC
		if i%2 == 1 { // alternating 1x1 bottleneck
			k, oc = 1, outC/2
		}
		h, w = convBNRelu(ops, fmt.Sprintf("%s.conv%d", name, i+1), c, oc, h, w, k, 1, k/2)
		c = oc
	}
	return h, w
}

func buildYOLO9000() []*kernels.Op {
	var ops []*kernels.Op
	h, w := convBNRelu(&ops, "conv1", 3, 32, 416, 416, 3, 1, 1)
	pool := func(name string, c int) {
		ops = append(ops, &kernels.Op{Name: name, Kind: kernels.OpMaxPool, InC: c, H: h, W: w, K: 2, Stride: 2})
		h, w = h/2, w/2
	}
	pool("pool1", 32)
	h, w = convBNRelu(&ops, "conv2", 32, 64, h, w, 3, 1, 1)
	pool("pool2", 64)
	h, w = darknetBlock(&ops, "stage3", 64, 128, h, w, 3)
	pool("pool3", 128)
	h, w = darknetBlock(&ops, "stage4", 128, 256, h, w, 3)
	pool("pool4", 256)
	h, w = darknetBlock(&ops, "stage5", 256, 512, h, w, 5)
	pool("pool5", 512)
	h, w = darknetBlock(&ops, "stage6", 512, 1024, h, w, 5)

	// Detection head: two 3x3 convs and the anchor output (5 anchors x
	// (5 box terms + 20 classes) = 125 channels on the 13x13 grid).
	h, w = convBNRelu(&ops, "head.conv1", 1024, 1024, h, w, 3, 1, 1)
	h, w = convBNRelu(&ops, "head.conv2", 1024, 1024, h, w, 3, 1, 1)
	ops = append(ops,
		&kernels.Op{Name: "head.out", Kind: kernels.OpConv2D, InC: 1024, OutC: 125, H: h, W: w, K: 1, Stride: 1, Pad: 0},
		&kernels.Op{Name: "head.loss", Kind: kernels.OpLoss, Elems: 125 * h * w},
	)
	return ops
}

// Extensions lists benchmarks beyond the paper's eight — models the
// paper names as future additions.
func Extensions() []*Model {
	return []*Model{YOLO9000()}
}

// LookupAny resolves a benchmark from the suite or the extensions.
func LookupAny(name string) (*Model, error) {
	if m, err := Lookup(name); err == nil {
		return m, nil
	}
	for _, m := range Extensions() {
		if m.Name == name {
			return m, nil
		}
	}
	return nil, fmt.Errorf("models: unknown benchmark %q", name)
}
