// Toolchain: a tour of the analysis pipeline (the paper's Figure 3) on a
// single configuration, exercising every tool through the public API:
// cross-framework comparability checking (§3.4.1), the end-to-end merged
// analysis (sampling methodology + utilizations + phases + kernels +
// memory), the vDNN-style offload what-if, the numeric twin, and the
// simulated iteration exported as a trace file — plus the live runtime
// profiler pointed at a real training run of the numeric twin.
package main

import (
	"fmt"
	"os"

	"tbd"
	"tbd/internal/memprof"
	"tbd/internal/prof"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "toolchain:", err)
		os.Exit(1)
	}
}

func run() error {
	const (
		model = "ResNet-50"
		fw    = "MXNet"
		batch = 32
	)

	fmt.Println("== Step 1: comparability across frameworks (§3.4.1) ==")
	comp, err := tbd.CheckComparability(model)
	if err != nil {
		return err
	}
	fmt.Printf("  %s\n", comp.Detail)
	if !comp.Comparable {
		return fmt.Errorf("implementations diverge")
	}

	fmt.Println("\n== Step 2: end-to-end analysis (Figure 3 pipeline) ==")
	a, err := tbd.Analyze(model, fw, "", batch)
	if err != nil {
		return err
	}
	fmt.Printf("  warm-up excluded: %d iterations; sampled: %d (iter p50 %.1f ms, p95 %.1f ms, CV %.3f)\n",
		a.WarmupIterations, a.SampledIterations, 1e3*a.P50IterSec, 1e3*a.P95IterSec, a.IterCV)
	fmt.Printf("  throughput %.1f samples/s | GPU %.0f%% | FP32 %.0f%% | CPU %.1f%%\n",
		a.Throughput, 100*a.GPUUtil, 100*a.FP32Util, 100*a.CPUUtil)
	fmt.Printf("  phases: fwd %.0f ms / bwd %.0f ms / update %.1f ms; %d kernels, %.1f ms gaps\n",
		1e3*a.ForwardSec, 1e3*a.BackwardSec, 1e3*a.UpdateSec, a.KernelsPerIteration, 1e3*a.GapTimeSec)
	gb := func(v int64) float64 { return float64(v) / (1 << 30) }
	fmt.Printf("  memory: %.2f GB (feature maps %.0f%%)\n", gb(a.Memory.Total()), 100*a.Memory.FeatureMapShare())

	fmt.Println("\n== Step 3: where does the memory go, and what would offloading buy? ==")
	top, err := tbd.TopMemoryConsumers(model, batch, 5)
	if err != nil {
		return err
	}
	for _, c := range top {
		fmt.Printf("  %-28s %-10s %6.1f MB feature maps\n", c.Op, c.Layer, float64(c.FeatureMapBytes)/(1<<20))
	}
	off, err := tbd.AnalyzeOffload(model, fw, batch, a.Memory.Total()/2)
	if err != nil {
		return err
	}
	fmt.Printf("  halving the footprint: offload %d stashes (%.2f GB) for +%.0f ms PCIe per iteration\n",
		len(off.OffloadedOps), gb(off.FreedBytes), 1e3*off.TransferSecPerIter)

	fmt.Println("\n== Step 4: the numeric twin actually trains ==")
	run, err := tbd.TrainTwin(model, 150, 1)
	if err != nil {
		return err
	}
	last := run.Points[len(run.Points)-1]
	fmt.Printf("  %s after 150 steps: %s = %.2f (improved: %v)\n", run.Model, run.Metric, last.Value, run.Improved)
	if !run.Improved {
		return fmt.Errorf("twin did not improve")
	}

	fmt.Println("\n== Step 5: export the simulated iteration as a trace ==")
	f, err := os.CreateTemp("", "tbd-trace-*.json")
	if err != nil {
		return err
	}
	defer os.Remove(f.Name())
	if err := tbd.ExportTrace(model, fw, "", batch, f); err != nil {
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	st, err := prof.ReadTraceFile(f.Name())
	if err != nil {
		return err
	}
	fmt.Printf("  wrote %s (%d spans) — Perfetto opens it, tbd whatif replays it\n", f.Name(), st.Spans())

	fmt.Println("\n== Step 6: profile the live engine (nvprof for the twin) ==")
	prof.Enable()
	if _, err := tbd.TrainTwin(model, 20, 1); err != nil {
		return err
	}
	prof.Disable()
	snap := prof.Stats()
	if err := snap.Table(5).Render(os.Stdout); err != nil {
		return err
	}
	bd := memprof.ProfileLive(snap.Mem)
	fmt.Printf("  watermark over %d steps: %.2f MB total, feature maps %.0f%% (the paper's Observation 11, live)\n",
		snap.Mem.Samples, float64(bd.Total())/(1<<20), 100*bd.FeatureMapShare())
	tf, err := os.CreateTemp("", "tbd-prof-*.json")
	if err != nil {
		return err
	}
	defer os.Remove(tf.Name())
	tr := prof.Current(prof.Meta{Model: model, Steps: 20})
	if err := tr.Write(tf); err != nil {
		return err
	}
	if err := tf.Close(); err != nil {
		return err
	}
	fmt.Printf("  trace of the real run (Perfetto opens it, tbd whatif replays it): %s (%d spans)\n", tf.Name(), tr.Spans())

	fmt.Println("\ntoolchain: OK")
	return nil
}
