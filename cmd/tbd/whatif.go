package main

import (
	"flag"
	"fmt"
	"os"

	"tbd/internal/prof"
	"tbd/internal/whatif"
)

// cmdWhatif replays a recorded span trace under a proposed transformation
// and prints the predicted step time and memory. The trace comes from a
// real run: `tbd twin -trace-out FILE` for single-process training,
// `tbd dist -trace-out FILE` for a merged cluster capture.
func cmdWhatif(args []string) error {
	fs := flag.NewFlagSet("whatif", flag.ExitOnError)
	tracePath := fs.String("trace", "", "recorded trace file (from twin -trace-out or dist -trace-out)")
	spec := fs.String("scenario", "", "comma-separated transforms, e.g. 'speedup=gemm*:2,bw=10gbe,fp16'")
	asJSON := fs.Bool("json", false, "emit the full prediction as JSON")
	topK := fs.Int("top", 12, "kernel rows to print (0 = all)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *tracePath == "" {
		return fmt.Errorf("whatif: -trace is required (record one with: tbd twin -trace-out trace.json)")
	}
	if *spec == "" {
		return fmt.Errorf("whatif: -scenario is required, e.g. -scenario 'speedup=gemm*:2' (transforms: speedup=GLOB:K, kernelmodel=GLOB:GFLOPS, parallel=N, batch=N, fp16, fused=on|off, bw=MBPS|1gbe|10gbe|40gbe|unlimited, compress=full|fp16|int8, offload=SIZE, drop=SPAN/PATH/GLOB)")
	}

	tr, err := prof.ReadTraceFile(*tracePath)
	if err != nil {
		return err
	}
	sc, err := whatif.ParseScenario(*spec)
	if err != nil {
		return err
	}
	pred, err := whatif.Replay(tr, sc)
	if err != nil {
		return err
	}
	if *asJSON {
		return pred.WriteJSON(os.Stdout)
	}

	desc := tr.Meta.Model
	if tr.Meta.Workers > 0 {
		desc = fmt.Sprintf("%s, %d ranks, %s/%s", desc, tr.Meta.Workers, tr.Meta.Strategy, tr.Meta.Compression)
	}
	fmt.Printf("What-if replay of %s (%d spans, %d steps, kernel tier %s)\n",
		desc, tr.Spans(), pred.Steps, tr.Meta.KernelTier)
	fmt.Printf("scenario: %s\n", *spec)
	for _, t := range pred.Transforms {
		fmt.Printf("  - %s\n", t)
	}
	fmt.Printf("\nstep time  %10.3f ms -> %10.3f ms  (%.2fx)\n",
		pred.BaselineStepUs/1e3, pred.PredictedStepUs/1e3, pred.StepSpeedup())
	fmt.Printf("wall time  %10.3f ms -> %10.3f ms\n\n",
		pred.BaselineWallUs/1e3, pred.PredictedWallUs/1e3)
	if err := pred.Table().Render(os.Stdout); err != nil {
		return err
	}
	fmt.Println()
	if err := pred.KernelTable(*topK).Render(os.Stdout); err != nil {
		return err
	}
	fmt.Println()
	if err := pred.MemTable().Render(os.Stdout); err != nil {
		return err
	}
	if len(pred.Notes) > 0 {
		fmt.Println("\nmodel notes:")
		for _, n := range pred.Notes {
			fmt.Printf("  - %s\n", n)
		}
	}
	return nil
}
