package core

import (
	"fmt"

	"tbd/internal/models"
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
	// Batch is the samples one step trained on.
	Batch  int
	Points []TwinPoint
}

// TwinPoint is one recorded sample of the curve.
type TwinPoint = models.TwinPoint

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
// Table 2 and the YOLO9000 extension has one; each trains on the
// synthetic stand-in for its Table 3 corpus.
func TrainTwin(modelName string, steps int, seed uint64) (TwinRun, error) {
	if steps <= 0 {
		return TwinRun{}, fmt.Errorf("core: steps must be positive, got %d", steps)
	}
	m, err := models.LookupAny(modelName)
	if err != nil {
		return TwinRun{}, err
	}
	tw := m.Twin
	return TwinRun{Model: modelName, Metric: tw.Metric, HigherIsBetter: tw.HigherIsBetter, Batch: tw.Batch,
		Points: tw.Train(tensor.NewRNG(seed), steps)}, nil
}
