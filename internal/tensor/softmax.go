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
	parallelRows(n, 1, 1+minElemsPerWorker/(f+1), softmaxRange, rowArgs{dst: out.data, a: t.data, m: f})
	return out
}

func softmaxRange(r rowArgs, lo, hi int) {
	dst, src, f := r.dst, r.a, r.m
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
	parallelRows(n, 1, 1+minElemsPerWorker/(f+1), logSoftmaxRange, rowArgs{dst: out.data, a: t.data, m: f})
	return out
}

func logSoftmaxRange(r rowArgs, lo, hi int) {
	dst, src, f := r.dst, r.a, r.m
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

// Accuracy returns the top-1 accuracy of logits against labels. logits is
// viewed as [N, F] (trailing dims flattened); a row predicts its first
// maximum. It allocates nothing.
func Accuracy(logits *Tensor, labels []int) float64 {
	if logits.Rank() < 2 {
		panic("tensor: Accuracy needs rank >= 2")
	}
	n := logits.shape[0]
	f := logits.Numel() / n
	correct := 0
	for i := 0; i < n; i++ {
		if argmax(logits.data[i*f:(i+1)*f]) == labels[i] {
			correct++
		}
	}
	return float64(correct) / float64(len(labels))
}
