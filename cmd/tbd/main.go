// Command tbd is the command-line front end of the TBD training
// benchmark: it lists the suite, profiles any (model, framework, GPU,
// batch) configuration, reports memory breakdowns, regenerates every
// table and figure of the paper, and checks the paper's 13 observations.
//
// Usage:
//
//	tbd list                                  # benchmark suite (Table 2)
//	tbd run <experiment|all> [-csv] [-gpu G] [-quick]
//	tbd profile -model M -framework F [-gpu G] [-batch N]
//	tbd memory -model M -framework F [-batch N]
//	tbd kernels -model M -framework F [-batch N]
//	tbd scaling [-model M] [-framework F]
//	tbd observations
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/metrics"
	"strings"

	"tbd"
	"tbd/internal/prof"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "list":
		err = cmdList()
	case "run":
		err = cmdRun(os.Args[2:])
	case "profile":
		err = cmdProfile(os.Args[2:])
	case "memory":
		err = cmdMemory(os.Args[2:])
	case "kernels":
		err = cmdKernels(os.Args[2:])
	case "scaling":
		err = cmdScaling(os.Args[2:])
	case "phases":
		err = cmdPhases(os.Args[2:])
	case "offload":
		err = cmdOffload(os.Args[2:])
	case "workspace":
		err = cmdWorkspace(os.Args[2:])
	case "trace":
		err = cmdTrace(os.Args[2:])
	case "twin":
		err = cmdTwin(os.Args[2:])
	case "dist":
		err = cmdDist(os.Args[2:])
	case "whatif":
		err = cmdWhatif(os.Args[2:])
	case "analyze":
		err = cmdAnalyze(os.Args[2:])
	case "observations":
		err = cmdObservations()
	case "help", "-h", "--help":
		usage()
	default:
		fmt.Fprintf(os.Stderr, "tbd: unknown command %q\n\n", os.Args[1])
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "tbd:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `tbd — Training Benchmark for DNNs (IISWC 2018 reproduction)

Commands:
  list            print the benchmark suite (Table 2)
  run <id|all>    regenerate a paper table/figure (ids: `+strings.Join(tbd.ExperimentIDs(), " ")+`)
                  flags: -csv, -gpu "TITAN Xp", -quick
  profile         simulate one training config
                  flags: -model, -framework, -gpu, -batch
  memory          memory breakdown for one config (-model, -framework, -batch)
  kernels         longest low-FP32-utilization kernels (-model, -framework, -batch)
  scaling         multi-GPU / multi-machine study (-model, -framework)
  phases          forward/backward/update time breakdown (-model, -framework, -batch)
  offload         vDNN-style feature-map offload what-if (-model, -framework, -batch, -target-gb)
  workspace       workspace-budget vs conv-algorithm tradeoff (-model, -framework, -batch)
  trace           one simulated iteration as a Chrome trace, for Perfetto or tbd whatif (-model, -framework, -batch)
  twin            train a benchmark's numeric twin for real (-model, -steps, -seed)
                  flags: -profile, -prof-top N, -prof-json, -trace-out FILE
  dist            real multi-process distributed training over TCP
                  flags: -workers N, -strategy ring|ps-sync|ps-async, -model mlp|mlp-wide|cnn,
                         -steps, -batch, -seed, -lr, -compress full|fp16|int8, -bw MB/s, -staleness,
                         -profile, -trace-out FILE
  whatif          Daydream-style replay of a recorded trace under a transformation
                  flags: -trace FILE, -scenario 'speedup=gemm*:2,bw=10gbe,drop=step/phase.backward/fc1/gemm.dX,...', -json, -top N
  analyze         full Figure-3 pipeline report for one config (-model, -framework, -batch)
  observations    check the paper's Observations 1-13`)
}

func cmdList() error {
	fmt.Printf("%-14s %-28s %-7s %-10s %-28s %s\n", "Model", "Application", "Layers", "Dominant", "Frameworks", "Dataset")
	for _, b := range tbd.Benchmarks() {
		fmt.Printf("%-14s %-28s %-7d %-10s %-28s %s\n",
			b.Name, b.Application, b.NumLayers, b.DominantLayer, strings.Join(b.Frameworks, ","), b.Dataset)
	}
	if exts := tbd.ExtensionBenchmarks(); len(exts) > 0 {
		fmt.Println("\nExtensions (beyond the paper's suite):")
		for _, b := range exts {
			fmt.Printf("%-14s %-28s %-7d %-10s %-28s %s\n",
				b.Name, b.Application, b.NumLayers, b.DominantLayer, strings.Join(b.Frameworks, ","), b.Dataset)
		}
	}
	return nil
}

func cmdPhases(args []string) error {
	fs := flag.NewFlagSet("phases", flag.ExitOnError)
	model, fw, gpu, batch := modelFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	p, err := tbd.ProfilePhases(*model, *fw, *gpu, *batch)
	if err != nil {
		return err
	}
	total := p.ForwardSec + p.BackwardSec + p.UpdateSec
	fmt.Printf("%s on %s, batch %d — GPU time per training phase:\n", *model, *fw, *batch)
	row := func(name string, sec float64, kernels int) {
		fmt.Printf("  %-9s %8.2f ms  (%4.1f%%, %d kernels)\n", name, sec*1e3, 100*sec/total, kernels)
	}
	row("forward", p.ForwardSec, p.ForwardKernels)
	row("backward", p.BackwardSec, p.BackwardKernels)
	row("update", p.UpdateSec, p.UpdateKernels)
	fmt.Printf("  backward/forward ratio: %.2fx\n", p.BackwardSec/p.ForwardSec)
	return nil
}

func cmdOffload(args []string) error {
	fs := flag.NewFlagSet("offload", flag.ExitOnError)
	model, fw, _, batch := modelFlags(fs)
	targetGB := fs.Float64("target-gb", 4, "GPU memory budget in GB")
	if err := fs.Parse(args); err != nil {
		return err
	}
	target := int64(*targetGB * float64(1<<30))
	a, err := tbd.AnalyzeOffload(*model, *fw, *batch, target)
	if err != nil {
		return err
	}
	gb := func(v int64) float64 { return float64(v) / (1 << 30) }
	fmt.Printf("%s on %s, batch %d, target %.1f GB:\n", *model, *fw, *batch, *targetGB)
	if a.OffloadedBytes == 0 {
		fmt.Println("  footprint already fits; nothing to offload")
		return nil
	}
	fmt.Printf("  offloaded %d feature-map stashes, freeing %.2f GB (remaining %.2f GB, fits=%v)\n",
		len(a.OffloadedOps), gb(a.OffloadedBytes), gb(a.RemainingFootprint), a.Fits(target))
	fmt.Printf("  added PCIe traffic: %.1f ms per iteration\n", a.TransferSecPerIter*1e3)
	max := len(a.OffloadedOps)
	if max > 8 {
		max = 8
	}
	fmt.Printf("  largest moved stashes: %s\n", strings.Join(a.OffloadedOps[:max], ", "))
	return nil
}

func cmdWorkspace(args []string) error {
	fs := flag.NewFlagSet("workspace", flag.ExitOnError)
	model, fw, _, batch := modelFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	budgets := []int64{8 << 20, 64 << 20, 256 << 20, 1 << 30, 4 << 30}
	rows, err := tbd.WorkspaceTradeoff(*model, *fw, *batch, budgets)
	if err != nil {
		return err
	}
	fmt.Printf("%s on %s, batch %d — workspace budget vs convolution algorithms (Observation 12):\n", *model, *fw, *batch)
	fmt.Printf("%-12s %-12s %-14s %-30s\n", "Budget", "Arena used", "Throughput", "Conv algos (wino/precomp/implicit)")
	mb := func(v int64) float64 { return float64(v) / (1 << 20) }
	for _, r := range rows {
		fmt.Printf("%-12s %-12s %-14.1f %d / %d / %d\n",
			fmt.Sprintf("%.0f MB", mb(r.BudgetBytes)),
			fmt.Sprintf("%.0f MB", mb(r.WorkspaceBytes)),
			r.Throughput, r.WinogradConvs, r.PrecompConvs, r.ImplicitConvs)
	}
	return nil
}

func cmdTrace(args []string) error {
	fs := flag.NewFlagSet("trace", flag.ExitOnError)
	model, fw, gpu, batch := modelFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	return tbd.ExportTrace(*model, *fw, *gpu, *batch, os.Stdout)
}

func cmdRun(args []string) error {
	fs := flag.NewFlagSet("run", flag.ExitOnError)
	csv := fs.Bool("csv", false, "emit CSV instead of aligned tables")
	gpu := fs.String("gpu", "", "GPU under test (default Quadro P4000)")
	quick := fs.Bool("quick", false, "shorten the fig2 numeric training runs")
	workers := fs.Int("parallel", runtime.NumCPU(), "numeric engine worker count (results are identical for any value)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	tbd.SetEngineParallelism(*workers)
	if fs.NArg() == 0 {
		return fmt.Errorf("run: missing experiment id (one of: %s, all)", strings.Join(tbd.ExperimentIDs(), " "))
	}
	opts := tbd.RunOptions{CSV: *csv, GPU: *gpu}
	if *quick {
		opts.Fig2Steps = 60
	}
	var ids []string
	for _, id := range fs.Args() {
		if id == "all" {
			ids = append(ids, tbd.ExperimentIDs()...)
			continue
		}
		if strings.HasPrefix(id, "-") {
			return fmt.Errorf("run: flags must come before the experiment id (got %q)", id)
		}
		ids = append(ids, id)
	}
	for _, id := range ids {
		if err := tbd.RunExperiment(id, os.Stdout, opts); err != nil {
			return err
		}
	}
	return nil
}

func modelFlags(fs *flag.FlagSet) (model, fw, gpu *string, batch *int) {
	model = fs.String("model", "ResNet-50", "benchmark model")
	fw = fs.String("framework", "TensorFlow", "framework implementation")
	gpu = fs.String("gpu", "", "GPU (default Quadro P4000)")
	batch = fs.Int("batch", 32, "mini-batch size")
	return
}

func cmdProfile(args []string) error {
	fs := flag.NewFlagSet("profile", flag.ExitOnError)
	model, fw, gpu, batch := modelFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	p, err := tbd.ProfileTraining(*model, *fw, *gpu, *batch)
	if err != nil {
		return err
	}
	fmt.Printf("%s (%s on %s), batch %d %s on %s\n", p.Model, p.Implementation, p.Framework, p.Batch, p.BatchUnit, p.GPU)
	fmt.Printf("  iteration time     %8.2f ms\n", p.IterTimeSec*1e3)
	fmt.Printf("  throughput         %8.1f %s/s\n", p.Throughput, p.BatchUnit)
	fmt.Printf("  GPU compute util   %8.1f %%\n", 100*p.GPUUtil)
	fmt.Printf("  GPU FP32 util      %8.1f %%\n", 100*p.FP32Util)
	fmt.Printf("  CPU util           %8.2f %%\n", 100*p.CPUUtil)
	fmt.Printf("  kernel launches    %8d per iteration\n", p.KernelCount)
	return nil
}

func cmdMemory(args []string) error {
	fs := flag.NewFlagSet("memory", flag.ExitOnError)
	model, fw, _, batch := modelFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	bd, err := tbd.ProfileMemory(*model, *fw, *batch)
	if err != nil {
		return err
	}
	gb := func(v int64) float64 { return float64(v) / (1 << 30) }
	fmt.Printf("%s on %s, batch %d\n", *model, *fw, *batch)
	fmt.Printf("  feature maps    %7.2f GB\n", gb(bd.FeatureMaps))
	fmt.Printf("  weights         %7.2f GB\n", gb(bd.Weights))
	fmt.Printf("  gradients       %7.2f GB\n", gb(bd.WeightGradients))
	fmt.Printf("  dynamic         %7.2f GB\n", gb(bd.Dynamic))
	fmt.Printf("  workspace       %7.2f GB\n", gb(bd.Workspace))
	fmt.Printf("  total           %7.2f GB (feature maps %.0f%%)\n", gb(bd.Total()), 100*bd.FeatureMapShare())
	return nil
}

func cmdKernels(args []string) error {
	fs := flag.NewFlagSet("kernels", flag.ExitOnError)
	model, fw, gpu, batch := modelFlags(fs)
	n := fs.Int("n", 5, "number of kernels")
	if err := fs.Parse(args); err != nil {
		return err
	}
	ks, err := tbd.LowUtilizationKernels(*model, *fw, *gpu, *batch, *n)
	if err != nil {
		return err
	}
	fmt.Printf("Longest %d kernels below average FP32 utilization (%s, %s, batch %d):\n", len(ks), *model, *fw, *batch)
	fmt.Printf("%-10s %-12s %s\n", "Duration", "Utilization", "Kernel")
	for _, k := range ks {
		fmt.Printf("%-10s %-12s %s\n",
			fmt.Sprintf("%.2f%%", 100*k.DurationShare),
			fmt.Sprintf("%.1f%%", 100*k.Util),
			k.Name)
	}
	return nil
}

func cmdScaling(args []string) error {
	fs := flag.NewFlagSet("scaling", flag.ExitOnError)
	model := fs.String("model", "ResNet-50", "benchmark model")
	fw := fs.String("framework", "MXNet", "framework implementation")
	if err := fs.Parse(args); err != nil {
		return err
	}
	rs, err := tbd.ScalingStudy(*model, *fw, []int{8, 16, 32})
	if err != nil {
		return err
	}
	fmt.Printf("%s on %s, data-parallel scaling (Figure 10):\n", *model, *fw)
	fmt.Printf("%-20s %-10s %-14s %-12s %s\n", "Config", "Batch/GPU", "Throughput", "Efficiency", "ExposedComm")
	for _, r := range rs {
		fmt.Printf("%-20s %-10d %-14.1f %-12.0f%% %.1f ms\n",
			r.Cluster.Name, r.PerGPUBatch, r.Throughput, 100*r.ScalingEfficiency, 1e3*r.CommSec)
	}
	return nil
}

func cmdTwin(args []string) error {
	fs := flag.NewFlagSet("twin", flag.ExitOnError)
	model := fs.String("model", "ResNet-50", "benchmark model")
	steps := fs.Int("steps", 200, "optimizer updates")
	seed := fs.Uint64("seed", 1, "RNG seed")
	workers := fs.Int("parallel", runtime.NumCPU(), "numeric engine worker count (results are identical for any value)")
	profile := fs.Bool("profile", false, "capture a live per-kernel profile and memory watermark of the run")
	profTop := fs.Int("prof-top", 12, "profile rows to print (0 = all)")
	profJSON := fs.Bool("prof-json", false, "emit the profile as JSON instead of a table")
	traceOut := fs.String("trace-out", "", "write the run's span trace (Chrome trace JSON: Perfetto opens it, tbd whatif replays it) to this file (implies -profile)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	tbd.SetEngineParallelism(*workers)
	if *traceOut != "" {
		*profile = true
	}
	var heap0, heap1 goHeap
	if *profile {
		// Every span kept: the budget closes and the trace replays.
		prof.EnableWithMaxRecords(traceRecordCap)
		heap0 = readGoHeap()
	}
	run, err := tbd.TrainTwin(*model, *steps, *seed)
	if *profile {
		heap1 = readGoHeap()
		prof.Disable()
	}
	if err != nil {
		return err
	}
	fmt.Printf("Numeric twin of %s: %d steps, metric %q\n", run.Model, *steps, run.Metric)
	for _, p := range run.Points {
		if int(p.FracDone*100)%10 == 0 || p.FracDone == 1 {
			fmt.Printf("  %3.0f%% trained: %s = %.4f\n", 100*p.FracDone, run.Metric, p.Value)
		}
	}
	if run.Improved() {
		fmt.Println("twin improved over training")
	} else {
		fmt.Println("twin did NOT improve — try more steps")
	}
	if !*profile {
		return nil
	}
	snap := prof.Stats()
	fmt.Println()
	if *profJSON {
		if err := snap.WriteJSON(os.Stdout); err != nil {
			return err
		}
	} else {
		if err := snap.Table(*profTop).Render(os.Stdout); err != nil {
			return err
		}
		bd := snap.Mem
		mb := func(v int64) float64 { return float64(v) / (1 << 20) }
		fmt.Printf("\nPeak memory watermark (%d samples):\n", snap.Mem.Samples)
		fmt.Printf("  feature maps %8.2f MB\n  weights      %8.2f MB\n  gradients    %8.2f MB\n  dynamic      %8.2f MB\n  workspace    %8.2f MB\n  total        %8.2f MB (feature maps %.0f%%)\n",
			mb(bd.FeatureMaps), mb(bd.Weights), mb(bd.WeightGradients), mb(bd.Dynamic), mb(bd.Workspace), mb(bd.Total()), 100*bd.FeatureMapShare())
		perStep := func(v0, v1 uint64) float64 { return float64(v1-v0) / float64(max(*steps, 1)) }
		fmt.Printf("\nGo heap (runtime/metrics, read before and after the run):\n")
		fmt.Printf("  heap live    %8.2f MB\n  GC goal      %8.2f MB\n  GC cycles    %8d\n  allocated    %8.0f B, %.1f objects per step (set-up included)\n",
			mb(int64(heap1.live)), mb(int64(heap1.goal)), heap1.cycles-heap0.cycles,
			perStep(heap0.allocBytes, heap1.allocBytes), perStep(heap0.allocObjects, heap1.allocObjects))
	}
	if *traceOut != "" {
		// Batch mirrors the twin training loops, which all draw batches
		// of 16 (internal/core/twins.go).
		tr := prof.Current(prof.Meta{Model: run.Model, Steps: *steps, Batch: 16, Parallel: *workers})
		if err := tr.WriteFile(*traceOut); err != nil {
			return err
		}
		fmt.Printf("trace (%d spans) written to %s — open it in Perfetto, or replay it with: tbd whatif -trace %s -scenario <spec>\n",
			tr.Spans(), *traceOut, *traceOut)
	}
	return nil
}

// traceRecordCap is a profiled twin run's timeline cap: past any twin.
const traceRecordCap = 1 << 20

// goHeap is the Go runtime's share of a run's memory, the term the
// five-category watermark leaves out: the heap live after the last
// collection, the next collection's goal, and cumulative collections and
// allocations.
type goHeap struct {
	live, goal, cycles, allocBytes, allocObjects uint64
}

// readGoHeap reads goHeap from runtime/metrics. Callers read it before and
// after a run, never per step.
func readGoHeap() goHeap {
	s := []metrics.Sample{
		{Name: "/gc/heap/live:bytes"},
		{Name: "/gc/heap/goal:bytes"},
		{Name: "/gc/cycles/total:gc-cycles"},
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/gc/heap/allocs:objects"},
	}
	metrics.Read(s)
	return goHeap{s[0].Value.Uint64(), s[1].Value.Uint64(), s[2].Value.Uint64(), s[3].Value.Uint64(), s[4].Value.Uint64()}
}

func cmdAnalyze(args []string) error {
	fs := flag.NewFlagSet("analyze", flag.ExitOnError)
	model, fw, gpu, batch := modelFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	comp, err := tbd.CheckComparability(*model)
	if err != nil {
		return err
	}
	a, err := tbd.Analyze(*model, *fw, *gpu, *batch)
	if err != nil {
		return err
	}
	gb := func(v int64) float64 { return float64(v) / (1 << 30) }
	fmt.Printf("End-to-end analysis: %s (%s on %s), batch %d, %s\n",
		a.Model, a.Implementation, a.Framework, a.Batch, a.GPU)
	fmt.Printf("  comparability      %s\n", comp.Detail)
	fmt.Printf("  sampling           warm-up %d iterations excluded; %d sampled\n", a.WarmupIterations, a.SampledIterations)
	fmt.Printf("  throughput         %.1f /s\n", a.Throughput)
	fmt.Printf("  GPU / FP32 / CPU   %.1f%% / %.1f%% / %.2f%%\n", 100*a.GPUUtil, 100*a.FP32Util, 100*a.CPUUtil)
	fmt.Printf("  phases             fwd %.1f ms, bwd %.1f ms, update %.1f ms\n",
		1e3*a.Phases.ForwardSec, 1e3*a.Phases.BackwardSec, 1e3*a.Phases.UpdateSec)
	fmt.Printf("  kernels            %d launches/iter, %.1f ms idle gaps\n", a.KernelsPerIteration, 1e3*a.GapTimeSec)
	fmt.Printf("  memory             %.2f GB total (feature maps %.0f%%), fits 8 GB P4000: %v\n",
		gb(a.Memory.Total()), 100*a.Memory.FeatureMapShare(), a.FitsP4000)
	fmt.Println("  low-utilization kernels:")
	for _, k := range a.LowUtilKernels {
		fmt.Printf("    %5.2f%% of time at %4.1f%% FP32: %s\n", 100*k.DurationShare, 100*k.Util, k.Name)
	}
	return nil
}

func cmdObservations() error {
	ok := true
	for _, o := range tbd.CheckObservations() {
		status := "HOLDS"
		if !o.Holds {
			status = "FAILS"
			ok = false
		}
		fmt.Printf("Observation %2d [%s] %s\n    %s\n", o.ID, status, o.Claim, o.Detail)
	}
	if !ok {
		return fmt.Errorf("some observations failed")
	}
	return nil
}
