// Serving example: stand up a one-replica serving fleet (the dynamic
// micro-batcher) over the dense serving twin and trace its
// throughput-vs-latency curve with the closed-loop load generator —
// batched vs unbatched, rising offered load. This is the serving-side
// mirror of the paper's batch-size sweep (Figures 4-6): occupancy climbs
// with concurrency, per-sample GEMM cost falls, and tail latency buys the
// difference.
package main

import (
	"fmt"
	"runtime"
	"time"

	"tbd/internal/models"
	"tbd/internal/serve"
	"tbd/internal/tensor"
)

func main() {
	tensor.SetParallelism(runtime.GOMAXPROCS(0))

	run := func(label string, maxBatch int, concurrency int) {
		net, shape, err := models.ServeTwin("mlp", tensor.NewRNG(42))
		if err != nil {
			panic(err)
		}
		// One replica: the factory hands the fleet the model built above.
		svc, err := serve.NewFleet(func() (*serve.Session, error) {
			return serve.NewSession(net, shape...), nil
		}, serve.FleetConfig{
			MaxBatch:   maxBatch,
			MaxWait:    500 * time.Microsecond,
			QueueDepth: 4 * concurrency,
		})
		if err != nil {
			panic(err)
		}
		defer svc.Close()

		rng := tensor.NewRNG(7)
		samples := make([]*tensor.Tensor, concurrency)
		for i := range samples {
			samples[i] = tensor.RandNormal(rng, 0, 1, shape...)
		}
		res := serve.LoadGen{Concurrency: concurrency, Duration: 1500 * time.Millisecond}.Run(
			func(w int) error {
				_, err := svc.Predict(samples[w])
				return err
			})
		snap := svc.Stats()
		fmt.Printf("%-10s cap=%-3d clients=%-3d  %7.0f req/s   p50 %6.2fms  p95 %6.2fms  p99 %6.2fms   occupancy %5.1f\n",
			label, maxBatch, concurrency, res.ThroughputRPS,
			res.P50Ms(), res.P95Ms(), res.P99Ms(), snap.MeanOccupancy)
	}

	fmt.Println("serve-mlp (256-512-512-10, fused GEMM epilogues), closed-loop load:")
	for _, c := range []int{1, 8, 32, 64} {
		run("unbatched", 1, c)
	}
	fmt.Println()
	for _, c := range []int{1, 8, 32, 64} {
		run("batched", 64, c)
	}
}
