package layers

import (
	"fmt"
	"math"

	"tbd/internal/tensor"
)

// CTC implements Connectionist Temporal Classification (Graves et al.),
// the loss Deep Speech 2 trains with: it marginalizes over all
// monotonic alignments between an unsegmented label sequence and the
// per-frame output distribution, using the forward-backward algorithm in
// log space. Blank is symbol 0 by convention.

// ctcLogZero is the log-space additive identity.
var ctcLogZero = math.Inf(-1)

// logAdd returns log(exp(a) + exp(b)) stably.
func logAdd(a, b float64) float64 {
	if math.IsInf(a, -1) {
		return b
	}
	if math.IsInf(b, -1) {
		return a
	}
	if a < b {
		a, b = b, a
	}
	return a + math.Log1p(math.Exp(b-a))
}

// ctcExtend interleaves blanks around labels: l1 l2 -> ∅ l1 ∅ l2 ∅.
func ctcExtend(labels []int) []int {
	ext := make([]int, 2*len(labels)+1)
	for i, l := range labels {
		ext[2*i+1] = l
	}
	return ext
}

// CTCLoss computes the CTC negative log-likelihood of one label sequence
// under logits [T, V] (time-major, single utterance) and the gradient
// with respect to the logits. Labels must not contain the blank (0).
func CTCLoss(logits *tensor.Tensor, labels []int) (float32, *tensor.Tensor) {
	if logits.Rank() != 2 {
		panic(fmt.Sprintf("layers: CTCLoss expects [T, V] logits, got %v", logits.Shape()))
	}
	T, V := logits.Dim(0), logits.Dim(1)
	for _, l := range labels {
		if l <= 0 || l >= V {
			panic(fmt.Sprintf("layers: CTC label %d outside (0, %d)", l, V))
		}
	}
	ext := ctcExtend(labels)
	S := len(ext)
	if S > 2*T+1 {
		panic(fmt.Sprintf("layers: label sequence (%d) too long for %d frames", len(labels), T))
	}

	// Log-softmax per frame.
	logp := tensor.LogSoftmaxRows(logits)
	lp := func(t, v int) float64 { return float64(logp.At(t, v)) }

	// Forward variables alpha[t][s].
	alpha := make([][]float64, T)
	for t := range alpha {
		alpha[t] = make([]float64, S)
		for s := range alpha[t] {
			alpha[t][s] = ctcLogZero
		}
	}
	alpha[0][0] = lp(0, ext[0])
	if S > 1 {
		alpha[0][1] = lp(0, ext[1])
	}
	for t := 1; t < T; t++ {
		for s := 0; s < S; s++ {
			a := alpha[t-1][s]
			if s > 0 {
				a = logAdd(a, alpha[t-1][s-1])
			}
			// Skip transition allowed when current symbol is not blank
			// and differs from the symbol two back.
			if s > 1 && ext[s] != 0 && ext[s] != ext[s-2] {
				a = logAdd(a, alpha[t-1][s-2])
			}
			alpha[t][s] = a + lp(t, ext[s])
		}
	}
	logLik := alpha[T-1][S-1]
	if S > 1 {
		logLik = logAdd(logLik, alpha[T-1][S-2])
	}

	// Backward variables beta[t][s].
	beta := make([][]float64, T)
	for t := range beta {
		beta[t] = make([]float64, S)
		for s := range beta[t] {
			beta[t][s] = ctcLogZero
		}
	}
	beta[T-1][S-1] = lp(T-1, ext[S-1])
	if S > 1 {
		beta[T-1][S-2] = lp(T-1, ext[S-2])
	}
	for t := T - 2; t >= 0; t-- {
		for s := S - 1; s >= 0; s-- {
			b := beta[t+1][s]
			if s < S-1 {
				b = logAdd(b, beta[t+1][s+1])
			}
			if s < S-2 && ext[s] != 0 && ext[s] != ext[s+2] {
				b = logAdd(b, beta[t+1][s+2])
			}
			beta[t][s] = b + lp(t, ext[s])
		}
	}

	// Gradient w.r.t. logits: softmax(t) - (posterior over symbols at t).
	grad := tensor.New(T, V)
	for t := 0; t < T; t++ {
		// Posterior gamma(t, s) = alpha*beta / (p(t, ext[s]) * lik).
		post := make([]float64, V)
		for i := range post {
			post[i] = ctcLogZero
		}
		for s := 0; s < S; s++ {
			g := alpha[t][s] + beta[t][s] - lp(t, ext[s])
			post[ext[s]] = logAdd(post[ext[s]], g)
		}
		for v := 0; v < V; v++ {
			p := math.Exp(lp(t, v))
			target := 0.0
			if !math.IsInf(post[v], -1) {
				target = math.Exp(post[v] - logLik)
			}
			grad.Set(float32(p-target), t, v)
		}
	}
	return float32(-logLik), grad
}

// CTCLossBatch averages CTCLoss over a batch of [N, T, V] logits with
// per-utterance label sequences, returning the mean loss and the full
// gradient tensor.
func CTCLossBatch(logits *tensor.Tensor, labels [][]int) (float32, *tensor.Tensor) {
	if logits.Rank() != 3 {
		panic(fmt.Sprintf("layers: CTCLossBatch expects [N, T, V], got %v", logits.Shape()))
	}
	n, T, V := logits.Dim(0), logits.Dim(1), logits.Dim(2)
	if len(labels) != n {
		panic(fmt.Sprintf("layers: %d label sequences for batch %d", len(labels), n))
	}
	grad := tensor.New(n, T, V)
	var total float64
	for i := 0; i < n; i++ {
		one := tensor.FromSlice(logits.Data()[i*T*V:(i+1)*T*V], T, V)
		loss, g := CTCLoss(one, labels[i])
		total += float64(loss)
		copy(grad.Data()[i*T*V:(i+1)*T*V], g.Data())
	}
	grad.ScaleInPlace(1 / float32(n))
	return float32(total / float64(n)), grad
}

// CTCGreedyDecode collapses the per-frame argmax path (remove repeats,
// then blanks) — the standard greedy CTC decoder.
//
//tbd:api the decoder TestCTCTrainingLearnsAlignment and TestNumericDeepSpeechCTCLearns judge CTC learning by
func CTCGreedyDecode(logits *tensor.Tensor) []int {
	T := logits.Dim(0)
	V := logits.Numel() / T
	var out []int
	prev := -1
	for t := 0; t < T; t++ {
		row := logits.Data()[t*V : (t+1)*V]
		best, bi := row[0], 0
		for v, p := range row {
			if p > best {
				best, bi = p, v
			}
		}
		if bi != prev && bi != 0 {
			out = append(out, bi)
		}
		prev = bi
	}
	return out
}
