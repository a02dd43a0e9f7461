package core

import (
	"tbd/internal/kernels"
	"tbd/internal/sim"
)

// Workspace-vs-throughput tradeoff: the executable form of the paper's
// Observation 12 recommendation — memory freed by a smaller mini-batch
// can buy faster convolution algorithms via a larger workspace arena.

// TradeoffRow is one point of the budget sweep.
type TradeoffRow struct {
	// BudgetBytes is the workspace arena allowance.
	BudgetBytes int64
	// WorkspaceBytes is the arena the selector actually used.
	WorkspaceBytes int64
	Throughput     float64
	// WinogradConvs / ImplicitConvs count the algorithm choices.
	WinogradConvs, PrecompConvs, ImplicitConvs int
}

// WorkspaceTradeoff sweeps workspace budgets for one configuration,
// running the budgeted convolution-algorithm selector at each point and
// simulating the resulting throughput.
func WorkspaceTradeoff(modelName, fwName string, batch int, budgets []int64) ([]TradeoffRow, error) {
	m, fw, gpu, err := Resolve(modelName, fwName, "", batch)
	if err != nil {
		return nil, err
	}
	cfg := SimConfigFor(m, fw, gpu)
	n := m.SamplesForBatch(batch)
	var out []TradeoffRow
	for _, budget := range budgets {
		ops, arena := kernels.ChooseConvAlgos(m.Ops(), n, budget)
		r := sim.Simulate(ops, n, fw.Style, cfg)
		row := TradeoffRow{
			BudgetBytes:    budget,
			WorkspaceBytes: arena,
			Throughput:     float64(batch) / r.IterTimeSec,
		}
		for _, o := range ops {
			if o.Kind != kernels.OpConv2D {
				continue
			}
			switch o.Algo {
			case kernels.AlgoWinograd:
				row.WinogradConvs++
			case kernels.AlgoImplicitGEMM:
				row.ImplicitConvs++
			default:
				row.PrecompConvs++
			}
		}
		out = append(out, row)
	}
	return out, nil
}
