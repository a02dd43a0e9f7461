package tbd

import (
	"bytes"
	"encoding/binary"
	"hash"
	"hash/fnv"
	"math"
	"testing"

	"tbd/internal/core"
	"tbd/internal/kernels"
	"tbd/internal/models"
	"tbd/internal/sim"
)

// parentReplayHash is replayHash as the commit before sim.Replay moved
// onto internal/sched computed it. It was recorded again, on unchanged
// code, when sim.Scale's cells moved out to scaleHash.
const parentReplayHash = 0xa1e4aeca4924a928

// parentScaleHash is scaleHash as the commit that moved sim.Scale onto
// internal/exchange computed it. The closed form before it (comm time
// × (1 − 0.5 overlap)) gave 0x4f96086548aac9ba.
const parentScaleHash = 0xdeb80dceef2518a

// eachCell calls f on every suite model, supported framework, GPU and
// sweep batch (189 cells), with the model's samples for that batch and
// its simulator configuration.
func eachCell(t *testing.T, f func(bench, fw, gpu string, batch int, m *models.Model, style kernels.NameStyle, n int, cfg sim.Config)) int {
	cells := 0
	for _, b := range Benchmarks() {
		for _, fw := range b.Frameworks {
			for _, gpu := range GPUs() {
				for _, batch := range b.BatchSizes {
					m, fr, g, err := core.Resolve(b.Name, fw, gpu, batch)
					if err != nil {
						t.Fatal(err)
					}
					f(b.Name, fw, gpu, batch, m, fr.Style, m.SamplesForBatch(batch), core.SimConfigFor(m, fr, g))
					cells++
				}
			}
		}
	}
	return cells
}

// replayHash hashes the simulator's every output over every cell: each
// sim.Result field (floats by their bits), every PerKernel row and the
// ExportTrace bytes. It returns the hash and the number of cells.
func replayHash(t *testing.T) (uint64, int) {
	h := fnv.New64a()
	cells := eachCell(t, func(bench, fw, gpu string, batch int, m *models.Model, style kernels.NameStyle, n int, cfg sim.Config) {
		r := sim.Simulate(m.Ops(), n, style, cfg)
		hashWrite(h, r.Batch, r.IterTimeSec, r.GPUBusySec, r.CPUBusySec, r.FLOPs, r.KernelCount,
			r.Throughput, r.GPUUtil, r.FP32Util, r.CPUUtil, r.GapSec,
			r.Phases.ForwardSec, r.Phases.BackwardSec, r.Phases.UpdateSec,
			r.Phases.ForwardKernels, r.Phases.BackwardKernels, r.Phases.UpdateKernels, len(r.PerKernel))
		for _, st := range r.PerKernel {
			hashWrite(h, st.Name, int(st.Class), st.Count, st.TotalSec, st.FLOPs, st.Util, st.DurationShare)
		}
		var trace bytes.Buffer
		if err := ExportTrace(bench, fw, gpu, batch, &trace); err != nil {
			t.Fatal(err)
		}
		h.Write(trace.Bytes())
	})
	return h.Sum64(), cells
}

// scaleHash hashes sim.Scale's every field under each Figure 10
// configuration over every cell.
func scaleHash(t *testing.T) (uint64, int) {
	h := fnv.New64a()
	cells := eachCell(t, func(_, _, _ string, _ int, m *models.Model, style kernels.NameStyle, n int, cfg sim.Config) {
		for _, c := range sim.Figure10Configs() {
			s := sim.Scale(m.Ops(), n, style, cfg, c)
			hashWrite(h, c.Name, s.PerGPUBatch, s.TotalBatch, s.ComputeSec, s.CommSec, s.RawCommSec,
				s.IterTimeSec, s.Throughput, s.ScalingEfficiency)
		}
	})
	return h.Sum64(), cells
}

// hashWrite feeds ints, strings and float bits to h, each length-framed
// or fixed-width so that no two sequences collide.
func hashWrite(h hash.Hash64, vals ...any) {
	var buf [8]byte
	for _, v := range vals {
		switch v := v.(type) {
		case int:
			binary.LittleEndian.PutUint64(buf[:], uint64(v))
		case float64:
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
		case string:
			binary.LittleEndian.PutUint64(buf[:], uint64(len(v)))
			h.Write(buf[:])
			h.Write([]byte(v))
			continue
		default:
			panic("hashWrite: unsupported value")
		}
		h.Write(buf[:])
	}
}

// TestReplayMatchesParentCommit holds every simulated number the
// toolchain reports to the bits it had before the simulator's clock
// became one dependency schedule.
func TestReplayMatchesParentCommit(t *testing.T) {
	got, cells := replayHash(t)
	if cells != 189 {
		t.Fatalf("%d cells, want 189", cells)
	}
	if got != parentReplayHash {
		t.Fatalf("replay hash %#x over %d cells, parent commit had %#x", got, cells, uint64(parentReplayHash))
	}
}

// TestScaleMatchesParentCommit holds the Figure 10 study's every number
// to the bits the exchange schedule gave when sim.Scale moved onto it.
func TestScaleMatchesParentCommit(t *testing.T) {
	got, cells := scaleHash(t)
	if cells != 189 {
		t.Fatalf("%d cells, want 189", cells)
	}
	if got != parentScaleHash {
		t.Fatalf("scale hash %#x over %d cells, parent commit had %#x", got, cells, uint64(parentScaleHash))
	}
}
