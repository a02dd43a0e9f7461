// Distributed: the paper's §4.5 scaling study, simulated and real.
//
// The first half regenerates Figure 10 — ResNet-50 on MXNet across five
// cluster configurations, showing the Ethernet collapse and the healthy
// InfiniBand/PCIe scaling. The second half trains for real on the runtime
// `tbd dist` uses: four ranks exchanging gradients over localhost TCP,
// first around a ring all-reduce, then through a synchronous parameter
// server, each run ending with every rank on bit-identical weights.
package main

import (
	"fmt"
	"os"

	"tbd"
	"tbd/internal/dist"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "distributed:", err)
		os.Exit(1)
	}
}

func run() error {
	fmt.Println("== Figure 10: ResNet-50 on MXNet, multi-GPU / multi-machine ==")
	rs, err := tbd.ScalingStudy("ResNet-50", "MXNet", []int{8, 16, 32})
	if err != nil {
		return err
	}
	fmt.Printf("%-20s %-10s %-14s %-12s\n", "Config", "Batch/GPU", "Throughput", "Efficiency")
	for _, r := range rs {
		fmt.Printf("%-20s %-10d %-14.1f %.0f%%\n", r.Config, r.PerGPUBatch, r.Throughput, 100*r.ScalingEfficiency)
	}

	const workers, steps, batch = 4, 100, 64
	fmt.Printf("\n== Real data-parallel training: %d ranks over localhost TCP, %d steps ==\n", workers, steps)
	for _, strategy := range []dist.RunStrategy{dist.RunRing, dist.RunPSSync} {
		// RunLocal fails unless every rank finishes on the same weights.
		s, err := dist.RunLocal(dist.CoordConfig{
			Workers: workers, Strategy: strategy, Model: "mlp", Seed: 11, LR: 0.2,
		}, steps, batch, 0)
		if err != nil {
			return err
		}
		r := s.Results[0]
		fmt.Printf("  %-8s rank-0 loss %.4f -> %.4f, %.0f samples/s, %.2f MB on the wire, weights %016x on all %d ranks\n",
			strategy, r.FirstLoss, r.LastLoss, s.Cluster.Throughput, float64(s.WireBytes)/1e6, s.Hash, workers)
		if r.LastLoss >= r.FirstLoss/2 {
			return fmt.Errorf("%s training did not converge: %.4f -> %.4f", strategy, r.FirstLoss, r.LastLoss)
		}
	}
	fmt.Println("\ndistributed: OK")
	return nil
}
