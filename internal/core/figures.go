package core

import (
	"fmt"

	"tbd/internal/device"
	"tbd/internal/framework"
	"tbd/internal/kernels"
	"tbd/internal/memprof"
	"tbd/internal/models"
	"tbd/internal/report"
	"tbd/internal/sim"
)

// sweepFigure builds one figure per benchmark model, with one series per
// framework implementation, extracting the given metric from the
// simulated sweep. Faster R-CNN's fixed-batch results are reported as a
// single-point series, matching the paper's prose treatment. When
// throughput is set, audio workloads are re-expressed as seconds of audio
// processed per second — the paper's adjusted throughput metric for Deep
// Speech 2 (§3.4.3).
func sweepFigure(o Options, title, ylabel string, throughput bool, metric func(sim.Result) float64) []*report.Figure {
	o = o.withDefaults()
	var figs []*report.Figure
	for _, m := range models.Suite() {
		yl := ylabel
		scale := 1.0
		if throughput && m.Dataset.MeanDurationSec > 0 {
			yl = "audio seconds/s"
			scale = m.Dataset.MeanDurationSec
		}
		fig := &report.Figure{
			Title:  fmt.Sprintf("%s: %s", title, m.Name),
			XLabel: "mini-batch size (" + m.BatchUnit + ")",
			YLabel: yl,
		}
		for _, fwName := range m.Frameworks {
			fw, _ := framework.Lookup(fwName)
			s := report.Series{Name: fmt.Sprintf("%s (%s)", m.ImplName(fwName), shortFW(fwName))}
			for _, b := range m.BatchesFor(fwName) {
				r := simulate(m, fw, o.GPU, b)
				s.X = append(s.X, float64(b))
				s.Y = append(s.Y, metric(r)*scale)
			}
			fig.Series = append(fig.Series, s)
		}
		figs = append(figs, fig)
	}
	return figs
}

func shortFW(name string) string {
	if name == "TensorFlow" {
		return "TF"
	}
	return name
}

func runFig4(o Options) (*Result, error) {
	figs := sweepFigure(o, "Training throughput", "samples/s", true, func(r sim.Result) float64 { return r.Throughput })
	return &Result{ID: "fig4", Title: "Figure 4", Figures: figs}, nil
}

func runFig5(o Options) (*Result, error) {
	figs := sweepFigure(o, "GPU compute utilization", "utilization", false, func(r sim.Result) float64 { return r.GPUUtil })
	return &Result{ID: "fig5", Title: "Figure 5", Figures: figs}, nil
}

func runFig6(o Options) (*Result, error) {
	figs := sweepFigure(o, "GPU FP32 utilization", "utilization", false, func(r sim.Result) float64 { return r.FP32Util })
	return &Result{ID: "fig6", Title: "Figure 6", Figures: figs}, nil
}

// fig7Configs lists the 14 model/framework bars of the paper's Figure 7.
func fig7Configs() [][2]string {
	return [][2]string{
		{"ResNet-50", "MXNet"}, {"ResNet-50", "TensorFlow"}, {"ResNet-50", "CNTK"},
		{"Inception-v3", "MXNet"}, {"Inception-v3", "TensorFlow"}, {"Inception-v3", "CNTK"},
		{"Seq2Seq", "TensorFlow"}, {"Seq2Seq", "MXNet"},
		{"Transformer", "TensorFlow"},
		{"Faster R-CNN", "MXNet"}, {"Faster R-CNN", "TensorFlow"},
		{"WGAN", "TensorFlow"},
		{"Deep Speech 2", "MXNet"},
		{"A3C", "MXNet"},
	}
}

func runFig7(o Options) (*Result, error) {
	o = o.withDefaults()
	fig := &report.Figure{Title: "Average CPU utilization", XLabel: "configuration", YLabel: "CPU utilization (%)"}
	s := report.Series{Name: "CPU utilization (%)"}
	for i, cfg := range fig7Configs() {
		m, err := models.Lookup(cfg[0])
		if err != nil {
			return nil, err
		}
		fw, err := framework.Lookup(cfg[1])
		if err != nil {
			return nil, err
		}
		batches := m.BatchesFor(cfg[1])
		b := batches[len(batches)-1]
		r := simulate(m, fw, o.GPU, b)
		s.XLabels = append(s.XLabels, fmt.Sprintf("%s (%s)", m.ImplName(cfg[1]), shortFW(cfg[1])))
		s.X = append(s.X, float64(i))
		s.Y = append(s.Y, 100*r.CPUUtil)
	}
	fig.Series = append(fig.Series, s)
	return &Result{ID: "fig7", Title: "Figure 7", Figures: []*report.Figure{fig}}, nil
}

// fig8Cells lists the (model, framework, batch) cells of Figure 8.
func fig8Cells() []struct {
	model, fw string
	batch     int
} {
	return []struct {
		model, fw string
		batch     int
	}{
		{"ResNet-50", "MXNet", 32}, {"Inception-v3", "MXNet", 32}, {"Seq2Seq", "MXNet", 64},
		{"ResNet-50", "TensorFlow", 32}, {"Inception-v3", "TensorFlow", 32}, {"Seq2Seq", "TensorFlow", 128},
	}
}

func runFig8(o Options) (*Result, error) {
	o = o.withDefaults()
	mkFig := func(fwName, ylabel string, metric func(sim.Result) float64, normalize bool) *report.Figure {
		fig := &report.Figure{Title: fmt.Sprintf("%s (%s implementations)", ylabel, fwName), XLabel: "model", YLabel: ylabel}
		for _, gpu := range []*device.GPU{device.TitanXp, device.QuadroP4000} {
			s := report.Series{Name: gpu.Name}
			i := 0
			for _, cell := range fig8Cells() {
				if cell.fw != fwName {
					continue
				}
				m, _ := models.Lookup(cell.model)
				fw, _ := framework.Lookup(cell.fw)
				r := simulate(m, fw, gpu, cell.batch)
				v := metric(r)
				if normalize {
					base := simulate(m, fw, device.QuadroP4000, cell.batch)
					v = metric(r) / metric(base)
				}
				s.XLabels = append(s.XLabels, fmt.Sprintf("%s (%d)", m.ImplName(cell.fw), cell.batch))
				s.X = append(s.X, float64(i))
				s.Y = append(s.Y, v)
				i++
			}
			fig.Series = append(fig.Series, s)
		}
		return fig
	}
	var figs []*report.Figure
	for _, fw := range []string{"MXNet", "TensorFlow"} {
		figs = append(figs,
			mkFig(fw, "Normalized throughput", func(r sim.Result) float64 { return r.Throughput }, true),
			mkFig(fw, "Compute utilization", func(r sim.Result) float64 { return r.GPUUtil }, false),
			mkFig(fw, "FP32 utilization", func(r sim.Result) float64 { return r.FP32Util }, false),
		)
	}
	return &Result{ID: "fig8", Title: "Figure 8", Figures: figs}, nil
}

// fig9Batches gives the per-panel batch triples of Figure 9.
func fig9Batches(model, fw string) []int {
	switch model {
	case "ResNet-50", "Inception-v3":
		if fw == "CNTK" {
			return []int{16, 32, 64}
		}
		return []int{8, 16, 32}
	case "WGAN":
		return []int{16, 32, 64}
	case "Deep Speech 2":
		return []int{1, 2, 3, 4}
	case "Seq2Seq":
		if fw == "TensorFlow" {
			return []int{32, 64, 128}
		}
		return []int{16, 32, 64}
	case "Transformer":
		return []int{512, 1024, 2048}
	case "A3C":
		return []int{32, 64, 128}
	case "Faster R-CNN":
		return []int{1}
	default:
		return nil
	}
}

func runFig9(o Options) (*Result, error) {
	o = o.withDefaults()
	tbl := &report.Table{
		Title:   "GPU memory usage breakdown (GB)",
		Columns: []string{"Model", "Framework", "Batch", "Feature maps", "Weights", "Gradients", "Dynamic", "Workspace", "Total", "FM share"},
	}
	gb := func(v int64) float64 { return float64(v) / (1 << 30) }
	for _, m := range models.Suite() {
		for _, fwName := range m.Frameworks {
			fw, _ := framework.Lookup(fwName)
			for _, b := range fig9Batches(m.Name, fwName) {
				n := m.SamplesForBatch(b)
				bd := memprof.ProfileOps(m.Ops(), n, fw.MemPolicy)
				tbl.AddRow(m.Name, fmt.Sprintf("%s (%s)", m.ImplName(fwName), shortFW(fwName)), b,
					gb(bd.FeatureMaps), gb(bd.Weights), gb(bd.WeightGradients),
					gb(bd.Dynamic), gb(bd.Workspace), gb(bd.Total()),
					fmt.Sprintf("%.0f%%", 100*bd.FeatureMapShare()))
			}
		}
	}
	return &Result{ID: "fig9", Title: "Figure 9", Tables: []*report.Table{tbl}}, nil
}

func runFig10(o Options) (*Result, error) {
	o = o.withDefaults()
	m, err := models.Lookup("ResNet-50")
	if err != nil {
		return nil, err
	}
	fw, err := framework.Lookup("MXNet")
	if err != nil {
		return nil, err
	}
	cfg := models.SimConfigFor(m, fw, o.GPU)
	fig := &report.Figure{
		Title:  "ResNet-50 on MXNet with multiple GPUs/machines",
		XLabel: "mini-batch size per GPU",
		YLabel: "throughput (samples/s)",
	}
	for _, cluster := range sim.Figure10Configs() {
		s := report.Series{Name: cluster.Name}
		for _, b := range []int{8, 16, 32} {
			r := sim.Scale(m.Ops(), b, kernels.StyleMXNet, cfg, cluster)
			s.X = append(s.X, float64(b))
			s.Y = append(s.Y, r.Throughput)
		}
		fig.Series = append(fig.Series, s)
	}
	return &Result{ID: "fig10", Title: "Figure 10", Figures: []*report.Figure{fig}}, nil
}
