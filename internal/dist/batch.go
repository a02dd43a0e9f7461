package dist

import (
	"fmt"

	"tbd/internal/tensor"
)

// SyntheticBatch generates n labeled samples: gaussian noise with a
// class-dependent offset on one feature, so the classes are separable.
// Every worker draws from an identically seeded RNG, so the data pipeline
// is deterministic with no coordinator involvement.
func SyntheticBatch(rng *tensor.RNG, shape []int, classes, n int) (*tensor.Tensor, []int) {
	x := tensor.New(append([]int{n}, shape...)...)
	labels := make([]int, n)
	syntheticRows(rng, classes, n, 0, x.Data(), labels)
	return x, labels
}

// syntheticRows draws rows [lo, lo+len(labels)) of a SyntheticBatch of n
// samples into x and labels, and advances rng past the other rows exactly
// as drawing them would: a rank fills its own shard and its RNG stays in
// step with every other rank's.
func syntheticRows(rng *tensor.RNG, classes, n, lo int, x []float32, labels []int) {
	inner := len(x) / len(labels)
	for i := 0; i < n; i++ {
		c := rng.Intn(classes)
		r := i - lo
		if r < 0 || r >= len(labels) {
			rng.SkipNorm(inner)
			continue
		}
		labels[r] = c
		row := x[r*inner : (r+1)*inner]
		for j := range row {
			v := float32(rng.Norm()) * 0.3
			if j == c%inner {
				v += 2
			}
			row[j] = v
		}
	}
}

// SplitBatch shards a batch across n workers (equal shards; the batch
// size must be divisible by n, mirroring how frameworks require divisible
// global batches).
func SplitBatch(x *tensor.Tensor, labels []int, n int) ([]*tensor.Tensor, [][]int) {
	total := x.Dim(0)
	if total%n != 0 {
		panic(fmt.Sprintf("dist: batch %d not divisible by %d workers", total, n))
	}
	per := total / n
	inner := x.Numel() / total
	xs := make([]*tensor.Tensor, n)
	ys := make([][]int, n)
	for i := 0; i < n; i++ {
		shard := make([]float32, per*inner)
		copy(shard, x.Data()[i*per*inner:(i+1)*per*inner])
		shape := append([]int{per}, x.Shape()[1:]...)
		xs[i] = tensor.FromSlice(shard, shape...)
		ys[i] = labels[i*per : (i+1)*per]
	}
	return xs, ys
}
