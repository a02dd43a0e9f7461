package data

import (
	"fmt"

	"tbd/internal/tensor"
)

// FixedImageSet is a materialized labeled dataset: a finite sample store
// with deterministic train/validation splitting and per-epoch shuffled
// iteration — the epoch regime of real training runs (the generators in
// synthetic.go model infinite streams instead).
//
//tbd:api a finite train/held-out split: TestFixedSetOverfittingDetected measures the generalization gap on it
type FixedImageSet struct {
	X       *tensor.Tensor // [N, C, H, W]
	Labels  []int
	Classes int
}

// NewFixedImageSet materializes n samples from an image source.
//
//tbd:api see FixedImageSet
func NewFixedImageSet(src *ImageSource, n int) *FixedImageSet {
	b := src.Batch(n)
	return &FixedImageSet{X: b.X, Labels: b.Labels, Classes: src.classes}
}

// Len returns the sample count.
func (s *FixedImageSet) Len() int { return len(s.Labels) }

// Subset extracts the samples at the given indices.
func (s *FixedImageSet) Subset(idx []int) *FixedImageSet {
	per := s.X.Numel() / s.Len()
	out := &FixedImageSet{
		X:       tensor.New(append([]int{len(idx)}, s.X.Shape()[1:]...)...),
		Labels:  make([]int, len(idx)),
		Classes: s.Classes,
	}
	for i, j := range idx {
		copy(out.X.Data()[i*per:(i+1)*per], s.X.Data()[j*per:(j+1)*per])
		out.Labels[i] = s.Labels[j]
	}
	return out
}

// Split partitions the set into train and validation subsets with the
// first trainFrac of a seeded shuffle as training data.
func (s *FixedImageSet) Split(trainFrac float64, rng *tensor.RNG) (train, val *FixedImageSet) {
	if trainFrac <= 0 || trainFrac >= 1 {
		panic(fmt.Sprintf("data: trainFrac %g outside (0, 1)", trainFrac))
	}
	perm := rng.Perm(s.Len())
	cut := int(float64(s.Len()) * trainFrac)
	if cut == 0 || cut == s.Len() {
		panic("data: split produced an empty subset")
	}
	return s.Subset(perm[:cut]), s.Subset(perm[cut:])
}

// Epochs iterates the set in mini-batches for the given number of epochs,
// reshuffling every epoch, invoking fn with each batch. Partial tail
// batches are dropped (the common framework default).
func (s *FixedImageSet) Epochs(epochs, batch int, rng *tensor.RNG, fn func(epoch int, x *tensor.Tensor, labels []int)) {
	if batch <= 0 || batch > s.Len() {
		panic(fmt.Sprintf("data: batch %d invalid for %d samples", batch, s.Len()))
	}
	per := s.X.Numel() / s.Len()
	for e := 0; e < epochs; e++ {
		perm := rng.Perm(s.Len())
		for start := 0; start+batch <= s.Len(); start += batch {
			x := tensor.New(append([]int{batch}, s.X.Shape()[1:]...)...)
			labels := make([]int, batch)
			for i := 0; i < batch; i++ {
				j := perm[start+i]
				copy(x.Data()[i*per:(i+1)*per], s.X.Data()[j*per:(j+1)*per])
				labels[i] = s.Labels[j]
			}
			fn(e, x, labels)
		}
	}
}

// StepsPerEpoch returns the number of full batches per epoch.
func (s *FixedImageSet) StepsPerEpoch(batch int) int { return s.Len() / batch }
