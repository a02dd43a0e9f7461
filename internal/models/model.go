// Package models builds the eight TBD benchmark models (Table 2) in two
// forms: paper-scale op graphs consumed by the simulator and memory
// profiler, and scaled-down numeric twins that genuinely train on the
// synthetic datasets (used for the Figure 2 convergence curves and as
// end-to-end proof of the training engine).
package models

import (
	"fmt"
	"sync"

	"tbd/internal/data"
	"tbd/internal/kernels"
)

// Model is one benchmark entry of Table 2.
type Model struct {
	Name          string
	Application   string
	NumLayers     int
	DominantLayer string
	// Frameworks lists implementations, ordered as in Table 2.
	Frameworks []string
	// Variant maps a framework to its implementation name when it
	// differs from the model name (NMT on TensorFlow vs Sockeye on
	// MXNet).
	Variant map[string]string
	Dataset *data.Dataset

	// BatchSizes is the mini-batch sweep of Figures 4-6.
	BatchSizes []int
	// MaxBatch caps the sweep per framework where the paper reports a
	// memory limit (Sockeye 64 vs NMT 128 on 8 GB).
	MaxBatch map[string]int
	// BatchUnit names the batch dimension ("samples" for most models,
	// "tokens" for the Transformer's 64-4096 sweep).
	BatchUnit string
	// SamplesPerBatchUnit converts a sweep value to samples for kernel
	// emission (25 tokens per sentence for the Transformer).
	SamplesPerBatchUnit int

	// SpeedFactor is the per-framework implementation-efficiency
	// multiplier behind Observation 3.
	SpeedFactor map[string]float64
	// HostCPUSecPerSample is host-side work per sample per framework
	// (input pipeline, environment stepping, proposal handling).
	HostCPUSecPerSample map[string]float64
	// PipelineWorkers overrides the host pipeline parallelism (0 keeps
	// the simulator default of 4; A3C runs many actor threads).
	PipelineWorkers int
	// IterHostOverheadSec is extra fixed host work per iteration beyond
	// the framework's own (A3C's rollout collection barrier).
	IterHostOverheadSec float64

	// BuildOps constructs the paper-scale op graph.
	BuildOps func() []*kernels.Op
	// Twin is the scaled-down network that really trains.
	Twin *Twin

	opsOnce sync.Once
	ops     []*kernels.Op // cached
}

// Ops returns the paper-scale op graph, building it once (safe for
// concurrent profiling of the same Model instance).
func (m *Model) Ops() []*kernels.Op {
	m.opsOnce.Do(func() { m.ops = m.BuildOps() })
	return m.ops
}

// SamplesForBatch converts a sweep batch value into a sample count for
// kernel emission.
func (m *Model) SamplesForBatch(batch int) int {
	if m.SamplesPerBatchUnit > 1 {
		n := batch / m.SamplesPerBatchUnit
		if n < 1 {
			n = 1
		}
		return n
	}
	return batch
}

// Speed returns the implementation-efficiency factor for a framework
// (1.0 when unspecified).
func (m *Model) Speed(fw string) float64 {
	if v, ok := m.SpeedFactor[fw]; ok {
		return v
	}
	return 1.0
}

// HostCPU returns the host-side per-sample cost for a framework, falling
// back to the dataset's decode cost.
func (m *Model) HostCPU(fw string) float64 {
	if v, ok := m.HostCPUSecPerSample[fw]; ok {
		return v
	}
	return m.Dataset.DecodeCPUSecPerSample
}

// SupportsFramework reports whether the model has an implementation on fw.
func (m *Model) SupportsFramework(fw string) bool {
	for _, f := range m.Frameworks {
		if f == fw {
			return true
		}
	}
	return false
}

// ImplName returns the implementation name on a framework (e.g. "NMT" on
// TensorFlow for the Seq2Seq model).
func (m *Model) ImplName(fw string) string {
	if v, ok := m.Variant[fw]; ok {
		return v
	}
	return m.Name
}

// BatchesFor returns the sweep batch sizes usable on a framework,
// respecting its memory cap.
func (m *Model) BatchesFor(fw string) []int {
	limit := 0
	if m.MaxBatch != nil {
		limit = m.MaxBatch[fw]
	}
	var out []int
	for _, b := range m.BatchSizes {
		if limit > 0 && b > limit {
			continue
		}
		out = append(out, b)
	}
	return out
}

// Suite returns the full TBD benchmark suite in Table 2 order.
func Suite() []*Model {
	return []*Model{
		ResNet50(), InceptionV3(), Seq2Seq(), Transformer(),
		FasterRCNN(), DeepSpeech2(), WGAN(), A3C(),
	}
}

// Lookup resolves a benchmark by name.
func Lookup(name string) (*Model, error) {
	for _, m := range Suite() {
		if m.Name == name {
			return m, nil
		}
	}
	return nil, fmt.Errorf("models: unknown benchmark %q", name)
}
