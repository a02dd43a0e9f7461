package core

import (
	"fmt"
	"sort"

	"tbd/internal/data"
	"tbd/internal/models"
	"tbd/internal/optim"
	"tbd/internal/tensor"
)

// TwinRun is the learning curve of one benchmark's numeric twin — the
// programmatic form of a Figure 2 panel, available for every model in the
// suite.
type TwinRun struct {
	Model  string
	Metric string
	// HigherIsBetter tells consumers which direction is improvement
	// (accuracy/score up; CTC loss and Wasserstein distance down).
	HigherIsBetter bool
	Points         []TwinPoint
}

// TwinPoint is one recorded sample of the curve.
type TwinPoint struct {
	// FracDone is the fraction of the training run completed.
	FracDone float64
	Value    float64
}

// Improved reports whether the tail of the curve beats its head in the
// metric's direction.
func (r TwinRun) Improved() bool {
	n := len(r.Points)
	if n < 2 {
		return false
	}
	q := n / 4
	if q == 0 {
		q = 1
	}
	var head, tail float64
	for i := 0; i < q; i++ {
		head += r.Points[i].Value
		tail += r.Points[n-1-i].Value
	}
	if r.HigherIsBetter {
		return tail > head
	}
	return tail < head
}

// TrainTwin trains the numeric twin of the named benchmark for steps
// optimizer updates and returns its learning curve. Every model of
// Table 2 is supported; each trains on the synthetic stand-in for its
// Table 3 corpus.
func TrainTwin(modelName string, steps int, seed uint64) (TwinRun, error) {
	if steps <= 0 {
		return TwinRun{}, fmt.Errorf("core: steps must be positive, got %d", steps)
	}
	rng := tensor.NewRNG(seed)
	run := TwinRun{Model: modelName, HigherIsBetter: true}
	switch modelName {
	case "ResNet-50", "Inception-v3":
		src := data.NewImageSource(rng, 1, 8, 8, 4, 0.3)
		var net = models.NumericResNet(rng, 1, 8, 4)
		if modelName == "Inception-v3" {
			net = models.NumericInception(rng, 1, 8, 4)
		}
		run.Metric = "top-1 accuracy"
		run.Points = toTwinPoints(accuracyCurve(net, func() (*tensor.Tensor, []int) {
			b := src.Batch(16)
			return b.X, b.Labels
		}, steps))
	case "Seq2Seq", "Transformer":
		src := data.NewTranslationSource(rng, 12, 6)
		var net = models.NumericSeq2Seq(rng, 12, 12, 24)
		if modelName == "Transformer" {
			net = models.NumericTransformer(rng, 12, 16, 2)
		}
		run.Metric = "token accuracy"
		run.Points = toTwinPoints(accuracyCurve(net, func() (*tensor.Tensor, []int) {
			b := src.Batch(16)
			return b.Src, b.Targets
		}, steps))
	case "Deep Speech 2":
		run.Metric = "ctc loss"
		run.HigherIsBetter = false
		net := models.NumericDeepSpeechCTC(rng, 8, 16, 5)
		opt := optim.NewAdam(0.01)
		// Fixed utterance with an unaligned transcript.
		T := 10
		frames := []int{1, 1, 2, 2, 2, 3, 3, 4, 4, 4}
		x := tensor.New(1, T, 8)
		for ti, s := range frames {
			x.Set(2, 0, ti, s)
		}
		transcript := [][]int{{1, 2, 3, 4}}
		for i := 0; i < steps; i++ {
			loss := models.DeepSpeechCTCStep(net, opt, x, transcript, 5)
			run.Points = append(run.Points, TwinPoint{FracDone: float64(i+1) / float64(steps), Value: float64(loss)})
		}
	case "Faster R-CNN", "YOLO9000":
		run.Metric = "detection accuracy"
		d := models.NewNumericDetector(rng, 1, 8, 4)
		opt := optim.NewAdam(0.01)
		for i := 0; i < steps; i++ {
			x, cls, box := detectionBatch(rng, 16)
			_, _, acc := models.DetectorStep(d, opt, x, cls, box)
			run.Points = append(run.Points, TwinPoint{FracDone: float64(i+1) / float64(steps), Value: acc})
		}
	case "WGAN":
		run.Metric = "wasserstein estimate"
		run.HigherIsBetter = false
		gen, critic := models.NumericWGAN(rng, 4, 1, 4)
		optG, optC := optim.NewAdam(0.01), optim.NewAdam(0.01)
		tpl := tensor.RandUniform(rng, -0.5, 0.5, 1, 4, 4)
		for i := 0; i < steps; i++ {
			real := tensor.New(16, 1, 4, 4)
			for s := 0; s < 16; s++ {
				for j := 0; j < 16; j++ {
					real.Data()[s*16+j] = tpl.Data()[j] + 0.05*float32(rng.Norm())
				}
			}
			w := models.WGANStep(gen, critic, optG, optC, real, rng, 4, 0.1)
			run.Points = append(run.Points, TwinPoint{FracDone: float64(i+1) / float64(steps), Value: float64(w)})
		}
	case "A3C":
		run.Metric = "game score"
		cfg := models.DefaultA3CConfig()
		cfg.Seed = seed
		cfg.Workers = 3
		cfg.Updates = steps
		cfg.Checkpoints = 8
		cfg.EvalEpisodeCap = 6000
		res := models.TrainA3C(cfg)
		sort.Slice(res.Curve, func(i, j int) bool { return res.Curve[i].UpdateFrac < res.Curve[j].UpdateFrac })
		for _, p := range res.Curve {
			run.Points = append(run.Points, TwinPoint{FracDone: p.UpdateFrac, Value: float64(p.Score)})
		}
	default:
		return TwinRun{}, fmt.Errorf("core: no numeric twin for %q", modelName)
	}
	return run, nil
}

func toTwinPoints(pts []curvePoint) []TwinPoint {
	out := make([]TwinPoint, len(pts))
	for i, p := range pts {
		out[i] = TwinPoint{FracDone: p.frac, Value: p.value}
	}
	return out
}

// detectionBatch builds the quadrant-blob detection task shared with the
// detector twin tests.
func detectionBatch(rng *tensor.RNG, n int) (*tensor.Tensor, []int, []float32) {
	x := tensor.New(n, 1, 8, 8)
	cls := make([]int, n)
	box := make([]float32, 2*n)
	for i := 0; i < n; i++ {
		qx, qy := rng.Intn(2), rng.Intn(2)
		cls[i] = qy*2 + qx
		cx, cy := 2+4*qx, 2+4*qy
		for dy := -1; dy <= 1; dy++ {
			for dx := -1; dx <= 1; dx++ {
				x.Set(1, i, 0, cy+dy, cx+dx)
			}
		}
		box[2*i] = float32(cx) / 8
		box[2*i+1] = float32(cy) / 8
	}
	return x, cls, box
}
