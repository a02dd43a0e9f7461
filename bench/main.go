// Command bench is the repository's benchmark: five workloads driven
// through the public entry points of graph, data, serve and dist, five
// end-to-end metrics per workload, and a separate traced run that times
// the calls into each layer from outside. See README.md in this directory.
//
//	go run ./bench                                  all five workloads, interleaved
//	go run ./bench -trace 1                         the per-layer run of each
//	go run ./bench -aa                              two interleaved sets of the same code, compared
//	go run ./bench --workload W --seed N --seconds S --trace 0|1
//	                                                one workload; last line is one JSON object
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"time"

	"tbd/internal/tensor"
)

// slicesPerRun is how many separate processes a run's timed seconds are
// spread over. Each sets up from scratch, which is what makes setup_s a
// median and lets the workloads of a set take turns on the host.
const slicesPerRun = 3

type metricDef struct{ name, unit string }

var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"op_ms_p50", "ms"},
	{"samples_per_s", "1/s"},
	{"ok_share", "ratio"},
	{"peak_rss_mb", "MB"},
}

var perLayer = []metricDef{
	{"data.next_wait_ms", "ms"}, {"data.batch_gen_ms", "ms"},
	{"graph.zero_ms", "ms"}, {"graph.forward_ms", "ms"}, {"graph.loss_ms", "ms"}, {"graph.backward_ms", "ms"},
	{"graph.clip_ms", "ms"}, {"graph.flatten_ms", "ms"}, {"graph.unattributed_share", "ratio"},
	{"layers.dense1024_fwd_ms", "ms"}, {"layers.dense1024_bwd_ms", "ms"},
	{"layers.conv3x3_fwd_ms", "ms"}, {"layers.conv3x3_bwd_ms", "ms"},
	{"layers.batchnorm_fwd_ms", "ms"}, {"layers.batchnorm_bwd_ms", "ms"},
	{"layers.residual_ms", "ms"}, {"layers.head_ms", "ms"},
	{"optim.step_ms", "ms"}, {"optim.params", "count"},
	{"tensor.gemm_1024_gflops", "GFLOP/s"}, {"tensor.gemm_transA_1024_gflops", "GFLOP/s"},
	{"tensor.gemm_transB_1024_gflops", "GFLOP/s"}, {"tensor.gemm_m32_gflops", "GFLOP/s"},
	{"tensor.gemm_m16_gflops", "GFLOP/s"}, {"tensor.gemm_par2_speedup", "ratio"},
	{"tensor.pool_hit_share", "ratio"}, {"tensor.pack_hit_share", "ratio"}, {"tensor.pool_retained_mb", "MB"},
	{"serve.occupancy_mean", "count"}, {"serve.infer_b1_ms", "ms"}, {"serve.infer_b32_ms", "ms"},
	{"serve.resident_ms", "ms"}, {"serve.call_overhead_us", "us"}, {"serve.overhead_us_per_req", "us"},
	{"serve.shed_share", "ratio"}, {"serve.open_lat_ms_p50", "ms"}, {"serve.open_lat_ms_tail", "ms"},
	{"serve.open_gen_late_ms", "ms"}, {"serve.open_shed_share", "ratio"},
	{"dist.wire_bytes_per_step", "bytes"}, {"dist.wire_inflation", "ratio"}, {"dist.comm_share", "ratio"},
	{"dist.run_fixed_ms", "ms"}, {"dist.compute_ms", "ms"}, {"dist.allreduce_ms", "ms"}, {"dist.apply_ms", "ms"},
	{"dist.ps_roundtrip_ms", "ms"}, {"dist.load_weights_ms", "ms"}, {"dist.ranks_identical", "count"},
	{"proc.op_ms_tail", "ms"}, {"proc.tail_pct", "%"}, {"proc.ops", "count"}, {"proc.cpu_ms_per_op", "ms"},
	{"proc.allocs_per_op", "count"}, {"proc.alloc_kb_per_op", "KB"}, {"proc.gc_cycles", "count"},
	{"proc.drift_share", "ratio"}, {"proc.trace_overhead_share", "ratio"},
}

// sliceRunner runs one slice of a workload. kind is "plain", "traced" or
// "probes". The benchmark spawns a process per slice; the smoke test runs
// them in its own.
type sliceRunner func(kind string, w *workload, seed uint64, window time.Duration) (*sliceResult, error)

func main() {
	name := flag.String("workload", "", "run this workload alone and end with one JSON line (default: all five, interleaved)")
	seed := flag.Uint64("seed", 1, "seed of the generated inputs")
	seconds := flag.Float64("seconds", 15, "timed seconds per workload, split over 3 slices")
	trace := flag.Int("trace", 0, "1: the per-layer run (an untraced, a traced and a probe slice per workload)")
	aa := flag.Bool("aa", false, "run two interleaved sets and compare them against the bounds in BENCHMARK.json")
	slice := flag.String("slice", "", "internal: run one slice of this kind and print its result")
	spawned := flag.Int64("spawned", 0, "internal: when the parent started this slice, Unix nanoseconds")
	flag.Parse()

	ws := workloads
	if *name != "" {
		w := workloadByName(*name)
		if w == nil {
			fatalf("unknown workload %q", *name)
		}
		ws = []*workload{w}
	}
	if *slice != "" {
		// A slice process hands its parent the numbers on standard output; a
		// traced one leaves its spans in bench/out.
		c := &sliceCtx{seed: *seed, window: time.Duration(*seconds * float64(time.Second)), spawned: time.Unix(0, *spawned)}
		r := runSlice(*slice, ws[0], c)
		err := json.NewEncoder(os.Stdout).Encode(r)
		if err == nil && *slice == "traced" {
			err = writeTrace(ws[0].name, *seed, r.Spans)
		}
		if err != nil {
			fatalf("%v", err)
		}
		return
	}

	window := time.Duration(*seconds / slicesPerRun * float64(time.Second))
	fmt.Printf("tensor.gemm_tier %s\n", tensor.GemmKernelTier())
	if *aa {
		if !runAA(ws, *seed, window) {
			os.Exit(1)
		}
		return
	}
	var last result
	defs := endToEnd
	if *trace == 1 {
		defs = perLayer
		for _, w := range ws {
			last = tracedRun(spawn, w, *seed, window)
			last.print(w.name, defs)
		}
	} else {
		for _, set := range runRounds(spawn, ws, slicesPerRun, *seed, window) {
			last = endToEndResult(set.slices)
			last.print(set.w.name, defs)
		}
	}
	if *name != "" {
		last.printJSON(defs)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bench: "+format+"\n", args...)
	os.Exit(2)
}

// spawn runs one slice as a fresh process of this binary, so that no slice
// inherits another's heap, pools or page cache state.
func spawn(kind string, w *workload, seed uint64, window time.Duration) (*sliceResult, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), 150*time.Second)
	defer cancel()
	cmd := exec.CommandContext(ctx, exe, "-slice", kind, "-workload", w.name,
		"-seed", strconv.FormatUint(seed, 10), "-seconds", strconv.FormatFloat(window.Seconds(), 'f', -1, 64),
		"-spawned", strconv.FormatInt(time.Now().UnixNano(), 10))
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("%s %s slice: %w", w.name, kind, err)
	}
	r := new(sliceResult)
	if err := json.Unmarshal(out, r); err != nil {
		return nil, fmt.Errorf("%s %s slice: %w", w.name, kind, err)
	}
	return r, nil
}

// writeTrace writes a traced slice's spans to bench/out/trace_<workload>.json
// under the working directory.
func writeTrace(workload string, seed uint64, spans []span) error {
	dir := filepath.Join("bench", "out")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(struct {
		Workload string `json:"workload"`
		Seed     uint64 `json:"seed"`
		Spans    []span `json:"spans"`
	}{workload, seed, spans})
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "trace_"+workload+".json"), b, 0o644)
}

// set is one workload's untraced slices.
type set struct {
	w      *workload
	slices []*sliceResult
}

// runRounds runs rounds slices of every workload in ws, one of each per
// round, so a contended minute on the host costs every workload a little
// and no workload its whole run. A slice that cannot be run is recorded as
// one failed op.
func runRounds(run sliceRunner, ws []*workload, rounds int, seed uint64, window time.Duration) []set {
	sets := make([]set, len(ws))
	for round := 0; round < rounds; round++ {
		for i, w := range ws {
			sets[i].w = w
			sets[i].slices = append(sets[i].slices, mustRun(run, "plain", w, seed, window))
		}
	}
	return sets
}

func mustRun(run sliceRunner, kind string, w *workload, seed uint64, window time.Duration) *sliceResult {
	r, err := run(kind, w, seed, window)
	if err != nil {
		r = &sliceResult{Attempted: 1, PrefixErr: err.Error()}
	}
	if r.PrefixErr != "" {
		fmt.Fprintf(os.Stderr, "bench: %s: %s\n", w.name, r.PrefixErr)
	}
	return r
}

// result is what one run reports.
type result struct {
	correct           bool
	attempted, failed int64
	metrics           map[string]float64
}

// endToEndResult pools a workload's untraced slices into the five
// end-to-end metrics.
func endToEndResult(slices []*sliceResult) result {
	var ops, raw, setups, peaks []float64
	var samples, timedNs, late int64
	res := result{metrics: map[string]float64{}}
	for _, r := range slices {
		ops = append(ops, nsToMs(r.OpNs)...)
		raw = append(raw, nsToMs(r.WallOpNs)...)
		setups = append(setups, float64(r.SetupNs)/1e9)
		samples += r.Samples
		timedNs += r.TimedNs
		peaks = append(peaks, float64(r.PeakRSSKB)/1024)
		res.attempted += r.Attempted
		if r.PrefixErr != "" {
			res.failed += r.Attempted
			continue
		}
		res.failed += r.Failed
		late += r.Late
	}
	res.correct = res.failed == 0 && res.attempted > 0
	res.attempted = max(res.attempted, 1)
	res.metrics["setup_s"] = median(setups)
	res.metrics["op_ms_p50"] = median(ops)
	res.metrics["op_ms_p50_wall"] = median(raw)
	res.metrics["samples_per_s"] = float64(samples) / (float64(max(timedNs, 1)) / 1e9)
	res.metrics["ok_share"] = float64(res.attempted-res.failed-late) / float64(res.attempted)
	res.metrics["peak_rss_mb"] = median(peaks)
	return res
}

// tracedRun is the per-layer run of one workload: an untraced slice for
// the process counters and as the base of the tracing overhead, a traced
// slice for the spans, and a slice of standalone probes.
func tracedRun(run sliceRunner, w *workload, seed uint64, window time.Duration) result {
	plain := mustRun(run, "plain", w, seed, window)
	traced := mustRun(run, "traced", w, seed, window)
	probes := mustRun(run, "probes", w, seed, window)

	m := map[string]float64{}
	for _, part := range []*sliceResult{traced, plain, probes} { // later wins: counters come from the untraced slice
		for k, v := range part.Layer {
			m[k] = v
		}
	}
	ops := nsToMs(plain.OpNs)
	if n := len(ops) / 10; n > 0 {
		m["proc.drift_share"] = median(ops[len(ops)-n:])/median(ops[:n]) - 1
	}
	base := endToEndResult([]*sliceResult{plain})
	if p50 := base.metrics["op_ms_p50"]; p50 > 0 {
		m["proc.trace_overhead_share"] = median(nsToMs(traced.OpNs))/p50 - 1
	}
	sort.Float64s(ops)
	m["proc.tail_pct"], m["proc.op_ms_tail"] = topPercentile(ops)
	m["proc.ops"] = float64(len(ops))
	if occ := m["serve.occupancy_mean"]; occ > 0 {
		// What a request costs beyond its share of a full-batch forward.
		m["serve.overhead_us_per_req"] = 1e6/base.metrics["samples_per_s"] - 1e3*m["serve.infer_b32_ms"]/occ
	}

	res := endToEndResult([]*sliceResult{plain, traced})
	if plain.WarmLoss != traced.WarmLoss {
		fmt.Fprintf(os.Stderr, "bench: %s: traced warm-up ended at loss %v, untraced at %v\n", w.name, traced.WarmLoss, plain.WarmLoss)
		res.correct = false
	}
	res.correct = res.correct && probes.PrefixErr == ""
	res.metrics = m
	return res
}

// print writes the run's metrics as "workload/metric value unit" lines.
func (res result) print(workload string, defs []metricDef) {
	for _, d := range defs {
		fmt.Printf("%s/%s %.6g %s\n", workload, d.name, res.metrics[d.name], d.unit)
	}
	if wall, ok := res.metrics["op_ms_p50_wall"]; ok {
		fmt.Printf("%s/op_ms_p50_wall %.6g ms (as read; every other time is scaled to the reference clock)\n", workload, wall)
	}
	fmt.Printf("%s/correct %v (%d ops attempted, %d failed)\n", workload, res.correct, res.attempted, res.failed)
}

// printJSON writes the one-object last line a driver reads.
func (res result) printJSON(defs []metricDef) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.correct, res.attempted, res.failed, map[string]value{}}
	for _, d := range defs {
		v := res.metrics[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		out.Metrics[d.name] = value{v, d.unit}
	}
	b, err := json.Marshal(out)
	if err != nil {
		fatalf("%v", err)
	}
	fmt.Println(string(b))
}

// runAA measures the same code twice, A and B taking alternate rounds, and
// reports how far the two sets' metrics differ beside the bound each metric
// is allowed. It is the benchmark's noise floor, measured and not guessed.
func runAA(ws []*workload, seed uint64, window time.Duration) bool {
	b, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		fatalf("%v (run from the repository root)", err)
	}
	var spec struct {
		EndToEnd []struct {
			Name  string  `json:"name"`
			Bound float64 `json:"bound"`
		} `json:"end_to_end"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		fatalf("BENCHMARK.json: %v", err)
	}
	all := runRounds(spawn, ws, 2*slicesPerRun, seed, window)
	ok := true
	for _, s := range all {
		var a, b []*sliceResult
		for i, r := range s.slices {
			if i%2 == 0 {
				a = append(a, r)
			} else {
				b = append(b, r)
			}
		}
		ra, rb := endToEndResult(a), endToEndResult(b)
		for _, m := range spec.EndToEnd {
			va, vb := ra.metrics[m.Name], rb.metrics[m.Name]
			diff := math.Abs(vb-va) / va
			verdict := "ok"
			if !(diff <= m.Bound) {
				verdict, ok = "EXCEEDS", false
			}
			fmt.Printf("%s/%s A %.6g B %.6g diff %.4f bound %.4f %s\n", s.w.name, m.Name, va, vb, diff, m.Bound, verdict)
		}
	}
	return ok
}
