package models_test

// The tests that run a model on the simulator live outside the package:
// the simulator's configuration is composed in internal/core, which
// imports models.

import (
	"testing"

	"tbd/internal/core"
	"tbd/internal/device"
	"tbd/internal/framework"
	"tbd/internal/kernels"
	"tbd/internal/memprof"
	"tbd/internal/models"
	"tbd/internal/sim"
)

func TestYOLO9000Extension(t *testing.T) {
	m, err := models.LookupAny("YOLO9000")
	if err != nil {
		t.Fatal(err)
	}
	if m.NumLayers != 19 || m.DominantLayer != "CONV" {
		t.Fatalf("YOLO9000 metadata wrong: %+v", m)
	}
	// Not part of the paper's 8-model suite.
	if _, err := models.Lookup("YOLO9000"); err == nil {
		t.Fatal("YOLO9000 must not be in the core suite")
	}
	if len(models.Extensions()) == 0 {
		t.Fatal("extensions registry empty")
	}
	// Conv count: 19 darknet convs + head.
	convs := 0
	for _, op := range m.Ops() {
		if op.Kind == kernels.OpConv2D {
			convs++
		}
	}
	if convs < 19 || convs > 23 {
		t.Fatalf("YOLO9000 has %d convs, want ~19-22", convs)
	}
	// Paper motivation: faster than Faster R-CNN at inference-scale
	// throughput; here, much higher training throughput at batch 4 than
	// Faster R-CNN at batch 1.
	fw, _ := framework.Lookup("TensorFlow")
	cfg := core.SimConfigFor(m, fw, device.QuadroP4000)
	r := sim.Simulate(m.Ops(), 4, fw.Style, cfg)
	frcnn, _ := models.Lookup("Faster R-CNN")
	rcfg := core.SimConfigFor(frcnn, fw, device.QuadroP4000)
	rr := sim.Simulate(frcnn.Ops(), 1, fw.Style, rcfg)
	if r.Throughput/4*1 <= rr.Throughput {
		t.Fatalf("YOLO per-image rate %.2f should beat Faster R-CNN %.2f", r.Throughput, rr.Throughput)
	}
	// And it fits the 8 GB card at batch 16.
	mem := memprof.ProfileOps(m.Ops(), 16, fw.MemPolicy)
	if mem.Total() > 9<<30 {
		t.Fatalf("YOLO batch 16 footprint %.1f GB", float64(mem.Total())/(1<<30))
	}
	if mem.FeatureMapShare() < 0.5 {
		t.Fatalf("feature maps should dominate YOLO too (%.2f)", mem.FeatureMapShare())
	}
}

func TestFasterRCNNMatchesPaperNumbers(t *testing.T) {
	m, _ := models.Lookup("Faster R-CNN")
	if len(m.BatchSizes) != 1 || m.BatchSizes[0] != 1 {
		t.Fatal("Faster R-CNN trains at batch 1")
	}
	for _, fwName := range m.Frameworks {
		fw, _ := framework.Lookup(fwName)
		cfg := core.SimConfigFor(m, fw, device.QuadroP4000)
		r := sim.Simulate(m.Ops(), 1, fw.Style, cfg)
		// Paper: 2.3 images/s on both frameworks; GPU util 89.4%/90.3%.
		if r.Throughput < 1 || r.Throughput > 6 {
			t.Fatalf("%s Faster R-CNN throughput %.1f, want ~2-3", fwName, r.Throughput)
		}
		if r.GPUUtil < 0.8 {
			t.Fatalf("%s Faster R-CNN GPU util %.2f, want ~0.9", fwName, r.GPUUtil)
		}
	}
}
