package tbd

// Real multi-worker distributed-training benchmarks: the full
// workers × strategy × compression × bandwidth matrix from the paper's
// §4.5 multi-machine study, measured (not simulated) over localhost TCP
// with token-bucket throttled links. Workers are goroutines running the
// exact RunWorker path `tbd dist` gives OS processes; the coordinator,
// ring, and parameter server are the real networked implementations.
//
// Baseline: BENCH_dist.json via `make bench-dist`; gate via
// `go run ./cmd/benchcompare -suite dist`.

import (
	"fmt"
	"testing"

	"tbd/internal/dist"
)

// benchDistRun executes one coordinated run and returns aggregate
// cluster throughput in samples/s.
func benchDistRun(b *testing.B, workers int, strat dist.RunStrategy, comp dist.Compression, bytesPerSec float64, steps, batch int) float64 {
	b.Helper()
	summary, err := dist.RunLocal(dist.CoordConfig{
		Workers:       workers,
		Strategy:      strat,
		Compression:   comp,
		Model:         "mlp-wide",
		Seed:          42,
		LR:            0.05,
		Staleness:     2,
		PSBytesPerSec: bytesPerSec,
	}, steps, batch, bytesPerSec)
	if err != nil {
		b.Fatal(err)
	}
	return summary.Cluster.Throughput
}

// BenchmarkDist measures the scaling matrix: workers {1,2,4} ×
// {ps-sync, ps-async, ring} × {full, fp16, int8} gradients × two
// throttled link classes (1 GbE and 10 GbE token buckets). The ~1.6 MB
// gradient vector of mlp-wide makes the runs bandwidth-bound at 1 GbE,
// so the strategy and compression deltas are link effects, not compute.
//
// A row's ns/op is not the whole run, whose connection set-up dominates
// three steps, but the steady state the workers measure after warm-up:
// the time the cluster takes to train one batch of samples, batch over
// its samples/s (one step at w1, a w-th of a step at w workers). The
// row prints samples/s beside it; their product is 1e9 × batch.
func BenchmarkDist(b *testing.B) {
	links := []struct {
		name string
		bps  float64
	}{
		{"1gbe", dist.Link1GbE},
		{"10gbe", dist.Link10GbE},
	}
	const steps, batch = 3, 16
	for _, workers := range []int{1, 2, 4} {
		for _, strat := range []dist.RunStrategy{dist.RunPSSync, dist.RunPSAsync, dist.RunRing} {
			for _, comp := range []dist.Compression{dist.CompressNone, dist.CompressFP16, dist.CompressInt8} {
				for _, link := range links {
					name := fmt.Sprintf("w%d/%s/%s/%s", workers, strat, comp, link.name)
					b.Run(name, func(b *testing.B) {
						var thr float64
						for i := 0; i < b.N; i++ {
							thr += benchDistRun(b, workers, strat, comp, link.bps, steps, batch)
						}
						b.ReportMetric(1e9*batch*float64(b.N)/thr, "ns/op")
						b.ReportMetric(thr/float64(b.N), "samples/s")
					})
				}
			}
		}
	}
}
