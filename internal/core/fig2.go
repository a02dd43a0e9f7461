package core

import (
	"sort"

	"tbd/internal/data"
	"tbd/internal/framework"
	"tbd/internal/graph"
	"tbd/internal/models"
	"tbd/internal/optim"
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

// fig2Iterations is the full-training iteration budget used for the time
// mapping: roughly 90 ImageNet epochs at batch 32 for the classifiers and
// published step counts for the others.
var fig2Iterations = map[string]float64{
	"Inception-v3": 3.4e6,
	"ResNet-50":    3.4e6,
	"Transformer":  300e3,
	"Seq2Seq":      50e3,
	"A3C":          55e3,
}

// fig2Batch picks the batch used for the iteration-time mapping.
var fig2Batch = map[string]int{
	"Inception-v3": 32, "ResNet-50": 32, "Transformer": 2048, "Seq2Seq": 64, "A3C": 32,
}

// accuracyCurve trains a classifier twin and records smoothed accuracy.
func accuracyCurve(net *graph.Network, batchFn func() (*tensor.Tensor, []int), steps int) []TwinPoint {
	opt := optim.NewAdam(0.01)
	every := steps / 24
	if every == 0 {
		every = 1
	}
	var pts []TwinPoint
	var window float64
	var count int
	for i := 0; i < steps; i++ {
		x, labels := batchFn()
		window += graph.TrainClassifierStep(net, opt, x, labels, 5).Accuracy
		count++
		if (i+1)%every == 0 {
			pts = append(pts, TwinPoint{FracDone: float64(i+1) / float64(steps), Value: window / float64(count)})
			window, count = 0, 0
		}
	}
	return pts
}

// timeScale returns the simulated seconds per full training run of the
// model on the framework (iteration time x published iteration budget).
func timeScale(o Options, modelName, fwName string) float64 {
	m, err := models.Lookup(modelName)
	if err != nil {
		panic(err)
	}
	fw, err := framework.Lookup(fwName)
	if err != nil {
		panic(err)
	}
	b := fig2Batch[modelName]
	caps := m.BatchesFor(fwName)
	if b > caps[len(caps)-1] {
		b = caps[len(caps)-1]
	}
	r := simulate(m, fw, o.GPU, b)
	return r.IterTimeSec * fig2Iterations[modelName]
}

func runFig2(o Options) (*Result, error) {
	o = o.withDefaults()
	steps := o.Fig2Steps
	if steps == 0 {
		steps = 240
	}
	rng := tensor.NewRNG(o.Seed)

	var figs []*report.Figure

	// Image classification panels: the same twin curve per model, with
	// per-framework time axes.
	imgPanel := func(modelName string, twin func(*tensor.RNG) *graph.Network) *report.Figure {
		src := data.NewImageSource(rng, 1, 8, 8, 4, 0.3)
		net := twin(rng)
		pts := accuracyCurve(net, func() (*tensor.Tensor, []int) {
			b := src.Batch(16)
			return b.X, b.Labels
		}, steps)
		fig := &report.Figure{Title: "Accuracy during training: " + modelName, XLabel: "training time (days)", YLabel: "top-1 accuracy"}
		m, _ := models.Lookup(modelName)
		for _, fwName := range m.Frameworks {
			scale := timeScale(o, modelName, fwName) / 86400
			s := report.Series{Name: modelName + " (" + shortFW(fwName) + ")"}
			for _, p := range pts {
				s.X = append(s.X, p.FracDone*scale)
				s.Y = append(s.Y, p.Value)
			}
			fig.Series = append(fig.Series, s)
		}
		return fig
	}
	figs = append(figs,
		imgPanel("Inception-v3", func(r *tensor.RNG) *graph.Network { return models.NumericInception(r, 1, 8, 4) }),
		imgPanel("ResNet-50", func(r *tensor.RNG) *graph.Network { return models.NumericResNet(r, 1, 8, 4) }),
	)

	// Translation panels: token accuracy as the BLEU-proxy metric
	// (documented in EXPERIMENTS.md).
	seqPanel := func(modelName string, twin *graph.Network, vocab, T int) *report.Figure {
		src := data.NewTranslationSource(rng, vocab, T)
		pts := accuracyCurve(twin, func() (*tensor.Tensor, []int) {
			b := src.Batch(16)
			return b.Src, b.Targets
		}, steps*2)
		fig := &report.Figure{Title: "Translation quality during training: " + modelName, XLabel: "training time (hours)", YLabel: "BLEU proxy (token accuracy x 28)"}
		m, _ := models.Lookup(modelName)
		for _, fwName := range m.Frameworks {
			scale := timeScale(o, modelName, fwName) / 3600
			s := report.Series{Name: m.ImplName(fwName) + " (" + shortFW(fwName) + ")"}
			for _, p := range pts {
				s.X = append(s.X, p.FracDone*scale)
				s.Y = append(s.Y, p.Value*28)
			}
			fig.Series = append(fig.Series, s)
		}
		return fig
	}
	figs = append(figs,
		seqPanel("Transformer", models.NumericTransformer(rng, 12, 16, 2), 12, 6),
		seqPanel("Seq2Seq", models.NumericSeq2Seq(rng, 12, 12, 24), 12, 6),
	)

	// A3C panel: real Pong evaluation scores over simulated hours.
	a3cCfg := models.DefaultA3CConfig()
	a3cCfg.Seed = o.Seed
	a3cCfg.Checkpoints = 8
	if o.Fig2Steps > 0 {
		a3cCfg.Updates = o.Fig2Steps * 4
		a3cCfg.EvalEpisodeCap = 4000
	}
	res := models.TrainA3C(a3cCfg)
	// Concurrent workers record checkpoints out of order; sort by
	// training progress.
	sort.Slice(res.Curve, func(i, j int) bool { return res.Curve[i].UpdateFrac < res.Curve[j].UpdateFrac })
	a3cScale := timeScale(o, "A3C", "MXNet") / 3600
	a3cFig := &report.Figure{Title: "Game score during training: A3C (Pong)", XLabel: "training time (hours)", YLabel: "game score"}
	s := report.Series{Name: "A3C (MXNet)"}
	for _, p := range res.Curve {
		s.X = append(s.X, p.UpdateFrac*a3cScale)
		s.Y = append(s.Y, float64(p.Score))
	}
	a3cFig.Series = append(a3cFig.Series, s)
	figs = append(figs, a3cFig)

	return &Result{ID: "fig2", Title: "Figure 2", Figures: figs}, nil
}
