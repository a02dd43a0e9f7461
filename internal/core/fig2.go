package core

import (
	"tbd/internal/framework"
	"tbd/internal/models"
	"tbd/internal/report"
	"tbd/internal/tensor"
)

// Figure 2 reproduces the accuracy-during-training curves for
// Inception-v3, ResNet-50, Transformer, Seq2Seq, and A3C. The numeric
// twins train for real on the synthetic datasets; each recorded step is
// mapped onto simulated wall-clock time by scaling with the paper-scale
// iteration time of the corresponding (model, framework) configuration —
// so the x-axis carries the days/hours units of the paper and
// framework-to-framework speed differences shift the curves exactly as in
// the original figure.

// fig2Panels are Figure 2's five panels, each a twin's curve on the
// time axis of every framework implementing the model. Iterations is the
// full-training budget the time mapping scales by (roughly 90 ImageNet
// epochs at batch 32 for the classifiers, published step counts for the
// others) and batch the sweep batch whose simulated iteration time it
// scales. The translation panels plot token accuracy x 28 as the BLEU
// proxy (documented in EXPERIMENTS.md), and they and A3C train for more
// steps than the image panels.
var fig2Panels = []struct {
	model, title, yLabel, unit  string
	unitSec, yScale, iterations float64
	stepsX, batch               int
}{
	{"Inception-v3", "Accuracy during training: Inception-v3", "top-1 accuracy", "days", 86400, 1, 3.4e6, 1, 32},
	{"ResNet-50", "Accuracy during training: ResNet-50", "top-1 accuracy", "days", 86400, 1, 3.4e6, 1, 32},
	{"Transformer", "Translation quality during training: Transformer", "BLEU proxy (token accuracy x 28)", "hours", 3600, 28, 300e3, 2, 2048},
	{"Seq2Seq", "Translation quality during training: Seq2Seq", "BLEU proxy (token accuracy x 28)", "hours", 3600, 28, 50e3, 2, 64},
	{"A3C", "Game score during training: A3C (Pong)", "game score", "hours", 3600, 1, 55e3, 4, 32},
}

func runFig2(o Options) (*Result, error) {
	o = o.withDefaults()
	steps := o.Fig2Steps
	if steps == 0 {
		steps = 240
	}
	// One generator across the panels, in order.
	rng := tensor.NewRNG(o.Seed)
	var figs []*report.Figure
	for _, p := range fig2Panels {
		m, err := models.Lookup(p.model)
		if err != nil {
			return nil, err
		}
		pts := m.Twin.Train(rng, steps*p.stepsX)
		fig := &report.Figure{Title: p.title, XLabel: "training time (" + p.unit + ")", YLabel: p.yLabel}
		for _, fwName := range m.Frameworks {
			fw, _ := framework.Lookup(fwName)
			// The sweep batch, capped by the framework's memory limit.
			caps := m.BatchesFor(fwName)
			iterSec := simulate(m, fw, o.GPU, min(p.batch, caps[len(caps)-1])).IterTimeSec
			scale := iterSec * p.iterations / p.unitSec
			s := report.Series{Name: m.ImplName(fwName) + " (" + shortFW(fwName) + ")"}
			for _, pt := range pts {
				s.X = append(s.X, pt.FracDone*scale)
				s.Y = append(s.Y, pt.Value*p.yScale)
			}
			fig.Series = append(fig.Series, s)
		}
		figs = append(figs, fig)
	}
	return &Result{ID: "fig2", Title: "Figure 2", Figures: figs}, nil
}
