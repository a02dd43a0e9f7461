package sim_test

import (
	"math"
	"testing"

	"tbd/internal/device"
	"tbd/internal/kernels"
	"tbd/internal/models"
	"tbd/internal/sim"
)

func resnetCfg() (ops []*kernels.Op, style kernels.NameStyle, cfg sim.Config) {
	m, _ := models.Lookup("ResNet-50")
	return m.Ops(), kernels.StyleMXNet, sim.Config{
		GPU:               device.QuadroP4000,
		LaunchOverheadSec: 6e-6,
		SyncOverheadSec:   180e-6,
		IterOverheadSec:   3e-3,
	}
}

func TestFigure10Ordering(t *testing.T) {
	// Figure 10's story: Ethernet cripples 2-machine training; the same
	// two machines on InfiniBand scale well; single-machine multi-GPU
	// over PCIe scales reasonably.
	ops, style, cfg := resnetCfg()
	results := map[string]sim.ScaleResult{}
	for _, c := range sim.Figure10Configs() {
		results[c.Name] = sim.Scale(ops, 32, style, cfg, c)
	}
	oneG := results["1M1G"].Throughput
	eth := results["2M1G (ethernet)"].Throughput
	ib := results["2M1G (infiniband)"].Throughput
	g2 := results["1M2G"].Throughput
	g4 := results["1M4G"].Throughput

	if eth >= oneG {
		t.Fatalf("2M over ethernet (%.1f) must be worse than one GPU (%.1f)", eth, oneG)
	}
	if ib <= oneG {
		t.Fatalf("2M over infiniband (%.1f) must beat one GPU (%.1f)", ib, oneG)
	}
	if results["2M1G (infiniband)"].ScalingEfficiency < 0.8 {
		t.Fatalf("infiniband scaling efficiency %.2f, want >= 0.8", results["2M1G (infiniband)"].ScalingEfficiency)
	}
	if !(g2 > oneG && g4 > g2) {
		t.Fatalf("multi-GPU must scale: 1G %.1f, 2G %.1f, 4G %.1f", oneG, g2, g4)
	}
	if results["1M4G"].ScalingEfficiency < 0.7 {
		t.Fatalf("1M4G scaling efficiency %.2f, want >= 0.7", results["1M4G"].ScalingEfficiency)
	}
}

func TestScaleMonotoneInBatch(t *testing.T) {
	ops, style, cfg := resnetCfg()
	c := sim.Figure10Configs()[4] // 1M4G
	prev := 0.0
	for _, b := range []int{8, 16, 32} {
		r := sim.Scale(ops, b, style, cfg, c)
		if r.Throughput <= prev {
			t.Fatalf("throughput not increasing at per-GPU batch %d", b)
		}
		prev = r.Throughput
	}
}

func TestRingAllReduceBeatsParameterServerOnSharedLink(t *testing.T) {
	ops, style, cfg := resnetCfg()
	ps := sim.Cluster{Name: "ps", Machines: 1, GPUsPerMachine: 4, IntraLink: device.PCIe3, Strategy: sim.ParameterServer}
	ring := ps
	ring.Strategy = sim.RingAllReduce
	rp := sim.Scale(ops, 16, style, cfg, ps)
	rr := sim.Scale(ops, 16, style, cfg, ring)
	if rr.Throughput <= rp.Throughput {
		t.Fatalf("ring all-reduce (%.1f) should beat the parameter server (%.1f) at 4 GPUs", rr.Throughput, rp.Throughput)
	}
}

func TestSingleWorkerHasNoComm(t *testing.T) {
	ops, style, cfg := resnetCfg()
	r := sim.Scale(ops, 8, style, cfg, sim.Figure10Configs()[0])
	if r.CommSec != 0 || r.RawCommSec != 0 {
		t.Fatal("single worker must not communicate")
	}
	if math.Abs(r.ScalingEfficiency-1) > 1e-9 {
		t.Fatalf("single-worker efficiency %.3f, want 1", r.ScalingEfficiency)
	}
}

func TestGradCompressionRescuesEthernet(t *testing.T) {
	// §4.5's recommendation quantified: compressing gradients 4x makes
	// the 2-machine Ethernet configuration usable again.
	ops, style, cfg := resnetCfg()
	eth := sim.Cluster{Name: "eth", Machines: 2, GPUsPerMachine: 1, IntraLink: device.PCIe3, InterLink: device.Ethernet, Strategy: sim.ParameterServer}
	plain := sim.Scale(ops, 16, style, cfg, eth)
	eth.GradCompression = 4
	compressed := sim.Scale(ops, 16, style, cfg, eth)
	if compressed.Throughput < plain.Throughput*2 {
		t.Fatalf("4x compression should speed Ethernet >2x: %.1f vs %.1f", compressed.Throughput, plain.Throughput)
	}
	if compressed.RawCommSec >= plain.RawCommSec {
		t.Fatal("compression did not reduce raw communication")
	}
}
