package dist

import (
	"fmt"

	"tbd/internal/tensor"
)

// SyntheticBatch generates n labeled samples: gaussian noise with a
// class-dependent offset on one feature, so the classes are separable.
// Every worker draws the identical global batch from an identically
// seeded RNG and takes its own shard, so the data pipeline is
// deterministic with no coordinator involvement.
func SyntheticBatch(rng *tensor.RNG, shape []int, classes, n int) (*tensor.Tensor, []int) {
	inner := 1
	for _, d := range shape {
		inner *= d
	}
	x := tensor.New(append([]int{n}, shape...)...)
	data := x.Data()
	labels := make([]int, n)
	for i := 0; i < n; i++ {
		c := rng.Intn(classes)
		labels[i] = c
		base := i * inner
		for j := 0; j < inner; j++ {
			v := float32(rng.Norm()) * 0.3
			if j == c%inner {
				v += 2
			}
			data[base+j] = v
		}
	}
	return x, labels
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
