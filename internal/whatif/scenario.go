package whatif

import (
	"errors"
	"fmt"
	"math"
	"path"
	"sort"
	"strconv"
	"strings"
)

// A Scenario is one proposed transformation of a recorded run: the
// "what if" the replay engine answers. Scenarios compose — a spec is a
// comma-separated list of clauses, applied in a fixed documented order
// (batch → kernelmodel → speedup → parallel → fp16 → fused → network →
// drop), so "batch=64,fp16,bw=10gbe" asks one combined question.
//
// Clause grammar (ParseScenario):
//
//	speedup=GLOB:K      spans matching GLOB run K× faster (K<1 = slower)
//	kernelmodel=GLOB:G  matching spans with FLOP counts take FLOPs/(G·1e9) s
//	                    (an analytical roofline at G GFLOP/s)
//	parallel=N          engine worker count N (ideal scaling on the
//	                    parallel kernels: gemm*, conv*, im2col, col2im)
//	batch=N             global batch N: compute phases, FLOPs, bytes, and
//	                    feature-map/workspace memory rescale by N/old
//	fp16                fp16 storage: kernel bytes and weight/workspace
//	                    memory halve; span time shrinks by its
//	                    memory-bound fraction (trace-calibrated roofline)
//	fused=on|off        fuse (or split) GEMM bias+activation epilogues
//	bw=V                per-link bandwidth V MB/s (aliases: 1gbe, 10gbe,
//	                    40gbe, unlimited) — comm.* spans rescale
//	compress=C          gradient wire encoding full|fp16|int8 — comm.*
//	                    bytes rescale by the wire-format blend
//	offload=V           vDNN feature-map offload to fit V (e.g. 0.5gb,
//	                    256mb): frees memory, charges PCIe transfers
//	drop=PATHGLOB       remove the spans whose path matches, with their
//	                    subtrees (Daydream's remove: work nobody reads)
//
// Glob matching uses path.Match where '*' also crosses dots, so "gemm*"
// covers gemm, gemm.dW, gemm.bias_act. A drop selector is matched against
// the span's path over parent edges, names joined by '/' (which '*' does
// not cross): every layer's kernel span is named gemm.dX and both
// directions of a layer carry its name, so only the path
// step/phase.backward/fc1/gemm.dX picks one.
type Scenario struct {
	Spec string

	Speedups     []ClassFactor
	KernelModels []ClassFactor
	Parallel     int
	Batch        int
	FP16         bool
	// Fused: nil = leave as recorded, else force fused (true) or split
	// (false) epilogues.
	Fused *bool
	// BandwidthMBps: 0 = unchanged; <0 = remove the throttle.
	BandwidthMBps float64
	Compression   string
	// OffloadTargetBytes: 0 = no offload what-if.
	OffloadTargetBytes int64
	// Drops are path globs of the spans to remove.
	Drops []string
}

// ClassFactor binds a span-name glob to a numeric factor (a speedup
// multiple or a GFLOP/s rate, depending on the clause).
type ClassFactor struct {
	Glob   string
	Factor float64
}

// matchClass reports whether a span name falls in a glob class.
func matchClass(glob, name string) bool {
	ok, err := path.Match(glob, name)
	return err == nil && ok
}

// ErrBadNumber is the error a clause's number wraps when it is not a
// positive finite value in range: NaN, an infinity, or a size past int64.
var ErrBadNumber = errors.New("not a positive finite number in range")

// bandwidthAliases maps link names to MB/s.
var bandwidthAliases = map[string]float64{
	"1gbe":      125,
	"10gbe":     1250,
	"40gbe":     5000,
	"unlimited": -1,
	"none":      -1,
}

// ParseScenario parses a scenario spec. An empty spec is valid: replay
// then predicts the baseline back (a self-check).
func ParseScenario(spec string) (*Scenario, error) {
	sc := &Scenario{Spec: spec}
	for _, clause := range strings.Split(spec, ",") {
		clause = strings.TrimSpace(clause)
		if clause == "" {
			continue
		}
		key, val, hasVal := strings.Cut(clause, "=")
		switch key {
		case "speedup", "kernelmodel":
			if !hasVal {
				return nil, fmt.Errorf("whatif: %s needs GLOB:FACTOR", key)
			}
			glob, factStr, ok := strings.Cut(val, ":")
			if !ok || glob == "" {
				return nil, fmt.Errorf("whatif: %s=%q: want GLOB:FACTOR (e.g. %s=gemm*:2.3)", key, val, key)
			}
			if _, err := path.Match(glob, "x"); err != nil {
				return nil, fmt.Errorf("whatif: bad glob %q: %v", glob, err)
			}
			fact, err := strconv.ParseFloat(factStr, 64)
			if err != nil || !(fact > 0) || math.IsInf(fact, 1) {
				return nil, fmt.Errorf("whatif: %s=%s: factor %q: %w", key, val, factStr, ErrBadNumber)
			}
			cf := ClassFactor{Glob: glob, Factor: fact}
			if key == "speedup" {
				sc.Speedups = append(sc.Speedups, cf)
			} else {
				sc.KernelModels = append(sc.KernelModels, cf)
			}
		case "parallel":
			n, err := parsePositiveInt(key, val, hasVal)
			if err != nil {
				return nil, err
			}
			sc.Parallel = n
		case "batch":
			n, err := parsePositiveInt(key, val, hasVal)
			if err != nil {
				return nil, err
			}
			sc.Batch = n
		case "fp16":
			if hasVal {
				return nil, fmt.Errorf("whatif: fp16 takes no value")
			}
			sc.FP16 = true
		case "fused":
			if !hasVal || (val != "on" && val != "off") {
				return nil, fmt.Errorf("whatif: fused=%q: want on or off", val)
			}
			fused := val == "on"
			sc.Fused = &fused
		case "bw":
			if !hasVal {
				return nil, fmt.Errorf("whatif: bw needs a value (MB/s or 1gbe/10gbe/40gbe/unlimited)")
			}
			if mbps, ok := bandwidthAliases[strings.ToLower(val)]; ok {
				sc.BandwidthMBps = mbps
				break
			}
			mbps, err := strconv.ParseFloat(val, 64)
			if err != nil || !(mbps > 0) || math.IsInf(mbps, 1) {
				return nil, fmt.Errorf("whatif: bw=%q: want MB/s or one of 1gbe, 10gbe, 40gbe, unlimited: %w", val, ErrBadNumber)
			}
			sc.BandwidthMBps = mbps
		case "compress":
			if !hasVal || (val != "full" && val != "fp16" && val != "int8") {
				return nil, fmt.Errorf("whatif: compress=%q: want full, fp16, or int8", val)
			}
			sc.Compression = val
		case "offload":
			if !hasVal {
				return nil, fmt.Errorf("whatif: offload needs a memory target (e.g. offload=0.5gb)")
			}
			n, err := parseByteSize(val)
			if err != nil {
				return nil, err
			}
			sc.OffloadTargetBytes = n
		case "drop":
			if val == "" {
				return nil, fmt.Errorf("whatif: drop needs a span path glob (e.g. drop=step/phase.backward/fc1/gemm.dX)")
			}
			if _, err := path.Match(val, "x"); err != nil {
				return nil, fmt.Errorf("whatif: bad glob %q: %v", val, err)
			}
			sc.Drops = append(sc.Drops, val)
		default:
			return nil, fmt.Errorf("whatif: unknown clause %q (have speedup, kernelmodel, parallel, batch, fp16, fused, bw, compress, offload, drop)", key)
		}
	}
	return sc, nil
}

func parsePositiveInt(key, val string, hasVal bool) (int, error) {
	if !hasVal {
		return 0, fmt.Errorf("whatif: %s needs a value", key)
	}
	n, err := strconv.Atoi(val)
	if err != nil || n <= 0 {
		return 0, fmt.Errorf("whatif: %s=%q: want a positive integer", key, val)
	}
	return n, nil
}

// parseByteSize parses "512mb", "0.5gb", "4gb", or a plain byte count.
func parseByteSize(s string) (int64, error) {
	low := strings.ToLower(strings.TrimSpace(s))
	mult := float64(1)
	switch {
	case strings.HasSuffix(low, "gb"):
		mult, low = 1<<30, strings.TrimSuffix(low, "gb")
	case strings.HasSuffix(low, "mb"):
		mult, low = 1<<20, strings.TrimSuffix(low, "mb")
	case strings.HasSuffix(low, "kb"):
		mult, low = 1<<10, strings.TrimSuffix(low, "kb")
	}
	v, err := strconv.ParseFloat(low, 64)
	if err != nil || !(v > 0) || v*mult >= math.MaxInt64 {
		return 0, fmt.Errorf("whatif: bad memory size %q (want e.g. 512mb, 0.5gb): %w", s, ErrBadNumber)
	}
	return int64(v * mult), nil
}

// Describe lists the scenario's clauses in application order, for the
// report header and prediction notes.
func (sc *Scenario) Describe() []string {
	var out []string
	if sc.Batch > 0 {
		out = append(out, fmt.Sprintf("global batch -> %d (compute/bytes/feature maps rescale)", sc.Batch))
	}
	for _, km := range sortedFactors(sc.KernelModels) {
		out = append(out, fmt.Sprintf("model %s analytically at %.4g GFLOP/s", km.Glob, km.Factor))
	}
	for _, sp := range sortedFactors(sc.Speedups) {
		out = append(out, fmt.Sprintf("speed up %s by %.4gx", sp.Glob, sp.Factor))
	}
	if sc.Parallel > 0 {
		out = append(out, fmt.Sprintf("engine parallelism -> %d (ideal scaling on parallel kernels)", sc.Parallel))
	}
	if sc.FP16 {
		out = append(out, "fp16 storage: bytes and weight/workspace memory halve, memory-bound time shrinks")
	}
	if sc.Fused != nil {
		if *sc.Fused {
			out = append(out, "fuse GEMM epilogues (bias+activation folded into the GEMM sweep)")
		} else {
			out = append(out, "split GEMM epilogues (bias+activation as separate memory passes)")
		}
	}
	if sc.BandwidthMBps < 0 {
		out = append(out, "remove the network bandwidth throttle")
	} else if sc.BandwidthMBps > 0 {
		out = append(out, fmt.Sprintf("per-link bandwidth -> %.0f MB/s", sc.BandwidthMBps))
	}
	if sc.Compression != "" {
		out = append(out, fmt.Sprintf("gradient wire encoding -> %s", sc.Compression))
	}
	if sc.OffloadTargetBytes > 0 {
		out = append(out, fmt.Sprintf("offload feature maps to fit %.2f MB (vDNN)", float64(sc.OffloadTargetBytes)/(1<<20)))
	}
	for _, glob := range sc.Drops {
		out = append(out, fmt.Sprintf("drop %s and everything under it", glob))
	}
	if len(out) == 0 {
		out = append(out, "no transformation (baseline replay self-check)")
	}
	return out
}

// sortedFactors returns a deterministic clause order for display.
func sortedFactors(in []ClassFactor) []ClassFactor {
	out := append([]ClassFactor(nil), in...)
	sort.Slice(out, func(i, j int) bool { return out[i].Glob < out[j].Glob })
	return out
}
