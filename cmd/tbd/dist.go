package main

import (
	"flag"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"time"

	"tbd/internal/dist"
	"tbd/internal/prof"
)

// cmdDist orchestrates real multi-process distributed training: the
// parent process becomes the coordinator (and parameter server for the
// ps strategies), re-executes itself once per rank with `-role worker`,
// and verifies that every worker finishes with bit-identical weights.
func cmdDist(args []string) error {
	fs := flag.NewFlagSet("dist", flag.ExitOnError)
	workers := fs.Int("workers", 2, "worker process count")
	strategy := fs.String("strategy", "ring", "gradient exchange: ring, ps-sync, ps-async")
	model := fs.String("model", "mlp", "registry model: mlp, mlp-wide, cnn")
	steps := fs.Int("steps", 50, "training steps per worker")
	batch := fs.Int("batch", 0, "global batch size (default 8*workers)")
	seed := fs.Uint64("seed", 1, "RNG seed (same seed reproduces the run bit-for-bit)")
	lr := fs.Float64("lr", 0.1, "SGD learning rate")
	compress := fs.String("compress", "full", "gradient wire encoding: full, fp16, int8")
	bwMBps := fs.Float64("bw", 0, "per-link bandwidth throttle in MB/s (0 = unthrottled; 125 = 1 GbE)")
	staleness := fs.Int("staleness", 2, "SSP staleness bound for ps-async (-1: unbounded)")
	profile := fs.Bool("profile", false, "capture per-rank dependence-graph traces and print a comm summary")
	traceOut := fs.String("trace-out", "", "write the merged cluster what-if trace to this file (implies -profile)")

	// Internal flags used by the worker re-exec; not for humans.
	role := fs.String("role", "", "internal: set to 'worker' in re-exec'd rank processes")
	rank := fs.Int("rank", -1, "internal: this worker's rank")
	coordAddr := fs.String("coord", "", "internal: coordinator control address")
	psAddr := fs.String("ps", "", "internal: parameter server address")
	if err := fs.Parse(args); err != nil {
		return err
	}

	strat, err := dist.ParseRunStrategy(*strategy)
	if err != nil {
		return err
	}
	comp, err := dist.ParseCompression(*compress)
	if err != nil {
		return err
	}
	if *batch == 0 {
		*batch = 8 * *workers
	}
	if err := dist.CheckBatch(*batch, *workers); err != nil {
		return err
	}
	bytesPerSec := *bwMBps * 1e6
	if *traceOut != "" {
		*profile = true
	}

	if *role == "worker" {
		_, err := dist.RunWorker(dist.WorkerConfig{
			Rank:        *rank,
			Workers:     *workers,
			Strategy:    strat,
			Compression: comp,
			BytesPerSec: bytesPerSec,
			Staleness:   *staleness,
			Model:       *model,
			Seed:        *seed,
			Steps:       *steps,
			GlobalBatch: *batch,
			LR:          float32(*lr),
			Profile:     *profile,
			CoordAddr:   *coordAddr,
			PSAddr:      *psAddr,
		})
		return err
	}
	if *role != "" {
		return fmt.Errorf("dist: unknown role %q", *role)
	}

	coord, err := dist.NewCoordinator(dist.CoordConfig{
		Workers:       *workers,
		Strategy:      strat,
		Compression:   comp,
		Model:         *model,
		Seed:          *seed,
		LR:            float32(*lr),
		Staleness:     *staleness,
		PSBytesPerSec: bytesPerSec,
	})
	if err != nil {
		return err
	}

	self, err := os.Executable()
	if err != nil {
		cerr := coord.Close()
		_ = cerr // the lookup failure is the actionable error
		return fmt.Errorf("dist: locate own binary for re-exec: %w", err)
	}
	procs := make([]*exec.Cmd, *workers)
	for i := 0; i < *workers; i++ {
		procs[i] = exec.Command(self, "dist",
			"-role", "worker",
			"-rank", strconv.Itoa(i),
			"-workers", strconv.Itoa(*workers),
			"-strategy", strat.String(),
			"-model", *model,
			"-steps", strconv.Itoa(*steps),
			"-batch", strconv.Itoa(*batch),
			"-seed", strconv.FormatUint(*seed, 10),
			"-lr", strconv.FormatFloat(*lr, 'g', -1, 64),
			"-compress", comp.String(),
			"-bw", strconv.FormatFloat(*bwMBps, 'g', -1, 64),
			"-staleness", strconv.Itoa(*staleness),
			"-profile="+strconv.FormatBool(*profile),
			"-coord", coord.Addr(),
			"-ps", coord.PSAddr(),
		)
		procs[i].Stderr = os.Stderr
		if err := procs[i].Start(); err != nil {
			for j := 0; j < i; j++ {
				_ = procs[j].Process.Kill() // best-effort teardown of already-started ranks
			}
			cerr := coord.Close()
			_ = cerr
			return fmt.Errorf("dist: spawn worker %d: %w", i, err)
		}
	}

	summary, werr := coord.Wait()
	for i, p := range procs {
		if err := p.Wait(); err != nil && werr == nil {
			werr = fmt.Errorf("dist: worker %d exited: %w", i, err)
		}
	}
	if summary == nil {
		return werr
	}

	fmt.Printf("Distributed run: %d worker processes, %s, %s gradients, model %s, %d steps, global batch %d",
		*workers, strat, comp, *model, *steps, *batch)
	if *bwMBps > 0 {
		fmt.Printf(", links throttled to %.0f MB/s", *bwMBps)
	}
	fmt.Println()
	fmt.Printf("%-5s %-11s %-11s %-9s %-9s %-10s %-10s %s\n",
		"rank", "first-loss", "last-loss", "wall(s)", "comm(s)", "wire-in", "wire-out", "weights-hash")
	for _, r := range summary.Results {
		fmt.Printf("%-5d %-11.4f %-11.4f %-9.3f %-9.3f %-10d %-10d %016x\n",
			r.Rank, r.FirstLoss, r.LastLoss, r.WallSec, r.CommSec, r.WireIn, r.WireOut, r.Hash)
	}
	fmt.Printf("cluster: %.1f samples/s aggregate, %.1f MB total wire traffic\n",
		summary.Cluster.Throughput, float64(summary.WireBytes)/1e6)
	if summary.Identical {
		fmt.Printf("weights hash %016x — identical across all %d workers\n", summary.Hash, *workers)
	} else {
		fmt.Println("WARNING: workers finished with DIVERGING weights")
	}
	if *profile && werr == nil {
		if err := distTraces(summary, *traceOut); err != nil {
			return err
		}
	}
	return werr
}

// distTraces merges the per-rank captures that rode the result frames
// (each already read back by the one trace reader, which refuses a capture
// that dropped spans) into one cluster trace, prints each rank's time
// budget from its span tree, and (with -trace-out) writes the merged
// trace for `tbd whatif` replay.
func distTraces(summary *dist.RunSummary, traceOut string) error {
	traces := make([]*prof.Trace, len(summary.Results))
	for i, r := range summary.Results {
		traces[i] = r.Trace // Merge refuses a rank that sent none
	}
	merged, err := prof.Merge(traces...)
	if err != nil {
		return err
	}
	trees, err := merged.Trees()
	if err != nil {
		return err
	}
	fmt.Printf("profile: %d spans across %d ranks (cluster wall %.1f ms)\n", merged.Spans(), len(merged.Ranks), ms(merged.Wall()))
	fmt.Printf("%-5s %-8s %-10s %-14s %-18s %s\n", "rank", "spans", "wall(ms)", "comm-self(ms)", "unattributed(ms)", "concurrent(ms)")
	for i, tree := range trees {
		var comm time.Duration
		for _, n := range tree.Nodes {
			if n.Cat == prof.CatComm {
				comm += n.Self
			}
		}
		fmt.Printf("%-5d %-8d %-10.1f %-14.1f %-18.1f %.1f\n", merged.Ranks[i].Rank, len(tree.Nodes), ms(tree.Wall),
			ms(comm), ms(tree.Unattributed), ms(tree.Concurrent))
	}
	if traceOut != "" {
		if err := merged.WriteFile(traceOut); err != nil {
			return fmt.Errorf("dist: write cluster trace: %w", err)
		}
		fmt.Printf("cluster trace written to %s — open it in Perfetto, or replay it with: tbd whatif -trace %s -scenario <spec>\n", traceOut, traceOut)
	}
	return nil
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
