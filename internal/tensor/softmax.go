package tensor

import (
	"fmt"
	"math"

	"tbd/internal/prof"
)

// SoftmaxRows computes a numerically stable softmax over the last axis;
// every leading axis is a batch of rows.
func SoftmaxRows(t *Tensor) *Tensor {
	if t.Rank() < 2 {
		panic(fmt.Sprintf("tensor: SoftmaxRows needs rank >= 2, got %v", t.shape))
	}
	f := t.shape[len(t.shape)-1]
	n := t.Numel() / f
	out := acquireDirty(t.shape...)
	minRows := 1 + minElemsPerWorker/(f+1)
	if rowWorkers(n, minRows) <= 1 {
		softmaxRange(out.data, t.data, f, 0, n)
		return out
	}
	parallelRows(n, minRows, func(lo, hi int) {
		softmaxRange(out.data, t.data, f, lo, hi)
	})
	return out
}

func softmaxRange(dst, src []float32, f, lo, hi int) {
	for i := lo; i < hi; i++ {
		softmaxRow(dst[i*f:(i+1)*f], src[i*f:(i+1)*f])
	}
}

func softmaxRow(dst, src []float32) {
	m := float32(math.Inf(-1))
	for _, v := range src {
		if v > m {
			m = v
		}
	}
	var sum float64
	for j, v := range src {
		e := float32(math.Exp(float64(v - m)))
		dst[j] = e
		sum += float64(e)
	}
	inv := float32(1 / sum)
	for j := range dst {
		dst[j] *= inv
	}
}

// LogSoftmaxRows computes log-softmax over the last axis of [N, F].
func LogSoftmaxRows(t *Tensor) *Tensor {
	n := t.shape[0]
	f := t.Numel() / n
	out := acquireDirty(t.shape...)
	minRows := 1 + minElemsPerWorker/(f+1)
	if rowWorkers(n, minRows) <= 1 {
		logSoftmaxRange(out.data, t.data, f, 0, n)
		return out
	}
	parallelRows(n, minRows, func(lo, hi int) {
		logSoftmaxRange(out.data, t.data, f, lo, hi)
	})
	return out
}

func logSoftmaxRange(dst, src []float32, f, lo, hi int) {
	for i := lo; i < hi; i++ {
		s := src[i*f : (i+1)*f]
		d := dst[i*f : (i+1)*f]
		m := float32(math.Inf(-1))
		for _, v := range s {
			if v > m {
				m = v
			}
		}
		var sum float64
		for _, v := range s {
			sum += math.Exp(float64(v - m))
		}
		lse := m + float32(math.Log(sum))
		for j, v := range s {
			d[j] = v - lse
		}
	}
}

// CrossEntropy computes the mean negative log-likelihood of integer labels
// under logits [N, F], together with the gradient w.r.t. the logits
// (softmax(x) - onehot(y)) / N, the fused kernel every framework implements.
func CrossEntropy(logits *Tensor, labels []int) (loss float32, grad *Tensor) {
	n := logits.shape[0]
	if len(labels) != n {
		panic(fmt.Sprintf("tensor: CrossEntropy got %d labels for batch %d", len(labels), n))
	}
	f := logits.Numel() / n
	sp := prof.Begin(prof.CatKernel, "loss.xent")
	if sp.Active() {
		sp.SetBytes(4 * 2 * int64(logits.Numel()))
	}
	grad = SoftmaxRows(logits)
	var total float64
	for i, y := range labels {
		if y < 0 || y >= f {
			panic(fmt.Sprintf("tensor: CrossEntropy label %d out of range [0,%d)", y, f))
		}
		p := grad.data[i*f+y]
		if p < 1e-12 {
			p = 1e-12
		}
		total -= math.Log(float64(p))
		grad.data[i*f+y] -= 1
	}
	grad.ScaleInPlace(1 / float32(n))
	sp.End()
	return float32(total / float64(n)), grad
}

// CrossEntropyLS is CrossEntropy with label smoothing: the target
// distribution places 1-eps on the true class and eps/(F-1) on the rest —
// the regularizer of the Transformer training recipe (eps = 0.1 in
// Vaswani et al.).
func CrossEntropyLS(logits *Tensor, labels []int, eps float32) (loss float32, grad *Tensor) {
	if eps == 0 {
		return CrossEntropy(logits, labels)
	}
	n := logits.shape[0]
	if len(labels) != n {
		panic(fmt.Sprintf("tensor: CrossEntropyLS got %d labels for batch %d", len(labels), n))
	}
	f := logits.Numel() / n
	if f < 2 {
		panic("tensor: CrossEntropyLS needs at least 2 classes")
	}
	logp := LogSoftmaxRows(logits)
	grad = SoftmaxRows(logits)
	off := eps / float32(f-1)
	on := 1 - eps
	var total float64
	for i, y := range labels {
		if y < 0 || y >= f {
			panic(fmt.Sprintf("tensor: CrossEntropyLS label %d out of range [0,%d)", y, f))
		}
		for j := 0; j < f; j++ {
			target := off
			if j == y {
				target = on
			}
			total -= float64(target) * float64(logp.data[i*f+j])
			grad.data[i*f+j] -= target
		}
	}
	logp.Release()
	grad.ScaleInPlace(1 / float32(n))
	return float32(total / float64(n)), grad
}

// Accuracy returns the top-1 accuracy of logits [N, F] against labels.
func Accuracy(logits *Tensor, labels []int) float64 {
	pred := ArgmaxRows(logits)
	correct := 0
	for i, p := range pred {
		if p == labels[i] {
			correct++
		}
	}
	return float64(correct) / float64(len(labels))
}

// TopKAccuracy returns the fraction of rows whose true label appears among
// the k largest logits (the paper reports Top-1 and Top-5).
func TopKAccuracy(logits *Tensor, labels []int, k int) float64 {
	n := logits.shape[0]
	f := logits.Numel() / n
	if k > f {
		k = f
	}
	correct := 0
	for i := 0; i < n; i++ {
		row := logits.data[i*f : (i+1)*f]
		y := labels[i]
		target := row[y]
		// Count entries strictly greater than the target score; the label is
		// in the top-k iff fewer than k entries beat it.
		greater := 0
		for j, v := range row {
			if v > target || (v == target && j < y) {
				greater++
			}
		}
		if greater < k {
			correct++
		}
	}
	return float64(correct) / float64(n)
}
