// Package core is the TBD suite itself: the registry of experiments that
// regenerate every table and figure of the paper, and the encoded
// Observations 1-13 with machine-checkable assertions. It ties the
// benchmark models, framework profiles, simulator, profilers, and
// distributed-training model into the end-to-end analysis pipeline of
// Figure 3.
package core

import (
	"fmt"
	"sync"

	"tbd/internal/device"
	"tbd/internal/framework"
	"tbd/internal/models"
	"tbd/internal/report"
	"tbd/internal/sim"
)

// Options configures an experiment run.
type Options struct {
	// GPU is the device under test (default Quadro P4000, the paper's
	// primary card).
	GPU *device.GPU
	// Seed drives all stochastic components.
	Seed uint64
	// Fig2Steps scales the numeric-twin training length for the
	// convergence curves (0 uses the default; tests use small values).
	Fig2Steps int
}

func (o Options) withDefaults() Options {
	if o.GPU == nil {
		o.GPU = device.QuadroP4000
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	return o
}

// Result is one experiment's regenerated artifact.
type Result struct {
	ID      string
	Title   string
	Tables  []*report.Table
	Figures []*report.Figure
}

// Experiment regenerates one table or figure of the paper.
type Experiment struct {
	ID          string
	Title       string
	Description string
	Run         func(Options) (*Result, error)
}

// Experiments lists every regenerable table and figure in paper order.
func Experiments() []*Experiment {
	return []*Experiment{
		{ID: "table1", Title: "Table 1: systems/architecture papers on DNNs since 2014", Description: "Literature survey counts by training-vs-inference and algorithmic breadth", Run: runTable1},
		{ID: "table2", Title: "Table 2: benchmark overview", Description: "The eight TBD models with layers, dominant layer, frameworks, datasets", Run: runTable2},
		{ID: "table3", Title: "Table 3: training datasets", Description: "Dataset cardinalities, shapes, and special properties", Run: runTable3},
		{ID: "fig2", Title: "Figure 2: model accuracy during training", Description: "Convergence curves of the numeric twins mapped to simulated wall-clock", Run: runFig2},
		{ID: "table4", Title: "Table 4: hardware specifications", Description: "Quadro P4000, Titan Xp, Xeon E5-2680", Run: runTable4},
		{ID: "fig4", Title: "Figure 4: training throughput vs mini-batch size", Description: "Per-model, per-framework throughput sweeps", Run: runFig4},
		{ID: "fig5", Title: "Figure 5: GPU compute utilization vs mini-batch size", Description: "Per-model, per-framework utilization sweeps", Run: runFig5},
		{ID: "fig6", Title: "Figure 6: GPU FP32 utilization vs mini-batch size", Description: "Per-model, per-framework FP32 utilization sweeps", Run: runFig6},
		{ID: "table5", Title: "Table 5: longest low-FP32-utilization kernels (ResNet-50, TensorFlow)", Description: "Top-5 kernels below average utilization at batch 32", Run: runTable5},
		{ID: "table6", Title: "Table 6: longest low-FP32-utilization kernels (ResNet-50, MXNet)", Description: "Top-5 kernels below average utilization at batch 32", Run: runTable6},
		{ID: "fig7", Title: "Figure 7: average CPU utilization", Description: "Host utilization across the 14 model/framework configurations", Run: runFig7},
		{ID: "fig8", Title: "Figure 8: Titan Xp vs Quadro P4000", Description: "Throughput, compute utilization, FP32 utilization across GPUs", Run: runFig8},
		{ID: "fig9", Title: "Figure 9: GPU memory usage breakdown", Description: "Weights / gradients / feature maps / dynamic / workspace per model and batch", Run: runFig9},
		{ID: "fig10", Title: "Figure 10: multi-GPU and multi-machine scaling", Description: "ResNet-50 on MXNet across 1M1G..1M4G and Ethernet/InfiniBand", Run: runFig10},
	}
}

// Lookup resolves an experiment by id.
func Lookup(id string) (*Experiment, error) {
	for _, e := range Experiments() {
		if e.ID == id {
			return e, nil
		}
	}
	return nil, fmt.Errorf("core: unknown experiment %q", id)
}

// --- shared simulation cache ---

type simKey struct {
	model, fw, gpu string
	batch          int
}

var (
	simMu    sync.Mutex
	simCache = map[simKey]sim.Result{}
)

// simulate runs (and memoizes) one (model, framework, batch, GPU) cell of
// the sweep. batch is in the model's batch unit (tokens for the
// Transformer); the returned result's Throughput is re-expressed in those
// units.
func simulate(m *models.Model, fw *framework.Framework, gpu *device.GPU, batch int) sim.Result {
	key := simKey{m.Name, fw.Name, gpu.Name, batch}
	simMu.Lock()
	if r, ok := simCache[key]; ok {
		simMu.Unlock()
		return r
	}
	simMu.Unlock()

	n := m.SamplesForBatch(batch)
	cfg := SimConfigFor(m, fw, gpu)
	r := sim.Simulate(m.Ops(), n, fw.Style, cfg)
	// Re-express throughput in sweep units (e.g. tokens/s).
	r.Throughput = float64(batch) / r.IterTimeSec

	simMu.Lock()
	simCache[key] = r
	simMu.Unlock()
	return r
}
