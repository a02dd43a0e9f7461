package tensor

import (
	"fmt"
	"math"
)

// Batch normalization's training passes over an NCHW tensor: the channel
// sums, the normalize pass and the input-gradient pass of
// layers.BatchNorm2D. The three per-element bodies belong to the
// pointwise kernel set (elem.go): bnSumsGo, bnNormGo and bnGradGo here,
// and on the avx2 tier the vector forms in bn_avx2_amd64.{s,go}, which
// match them bit for bit. The arithmetic is the layer's as it stood
// before it moved here, operation for operation: each channel's float64
// sums run in (image, pixel) order, and k = gamma·inv/m is the same
// product the old loop's `gamma * inv / m * (...)` formed first.

// chanPlanes locates one channel's elements in an NCHW tensor sliced to
// start at that channel's first plane: imgs planes of plane elements,
// stride (C·plane) elements apart.
type chanPlanes struct{ imgs, stride, plane int }

// bnSumsGo sets sa[j] = Σ a and sab[j] = Σ a·b over channel j's planes,
// for j < len(sa), each a float64 sum in (image, pixel) order. The
// forward passes b = a for the sum of squares.
func bnSumsGo(sa, sab []float64, a, b []float32, pl chanPlanes) {
	for j := range sa {
		var s, sp float64
		for i := 0; i < pl.imgs; i++ {
			o := i*pl.stride + j*pl.plane
			av, bv := a[o:o+pl.plane], b[o:o+pl.plane]
			for p, v := range av {
				s += float64(v)
				sp += float64(v) * float64(bv[p])
			}
		}
		sa[j], sab[j] = s, sp
	}
}

// bnNormGo writes one channel's xh = (x − mu)·inv and out = g·xh + b.
func bnNormGo(xh, out, x []float32, pl chanPlanes, mu, inv, g, b float32) {
	for i := 0; i < pl.imgs; i++ {
		o := i * pl.stride
		src, xd, od := x[o:o+pl.plane], xh[o:o+pl.plane], out[o:o+pl.plane]
		for p, v := range src {
			nrm := (v - mu) * inv
			xd[p] = nrm
			od[p] = g*nrm + b
		}
	}
}

// bnGradGo writes one channel's input gradient gx = k·((m·gy − s) − xh·sx).
func bnGradGo(gx, gy, xh []float32, pl chanPlanes, k, m, s, sx float32) {
	for i := 0; i < pl.imgs; i++ {
		o := i * pl.stride
		g, xd, dst := gy[o:o+pl.plane], xh[o:o+pl.plane], gx[o:o+pl.plane]
		for p, v := range g {
			dst[p] = k * (m*v - s - xd[p]*sx)
		}
	}
}

// BatchNormStats is what one training batch norm over C channels keeps
// across calls: the running statistics inference reads, 1/√(σ²+eps) of
// the last training forward for its backward, and the sums' scratch.
type BatchNormStats struct {
	RunMean, RunVar []float32
	InvStd          []float32
	sums            []float64 // Σa in [0, C), Σa·b in [C, 2C)
}

// NewBatchNormStats returns the state of a batch norm that has seen no
// batch: running mean 0, running variance 1.
func NewBatchNormStats(c int) BatchNormStats {
	st := BatchNormStats{RunMean: make([]float32, c), RunVar: make([]float32, c)}
	for i := range st.RunVar {
		st.RunVar[i] = 1
	}
	return st
}

// bnGroup is the unit the worker pool splits a batch norm by: four
// channels, one AVX2 lane each.
const bnGroup = 4

// bnShape checks x against the state's channel count and returns where
// each channel's planes lie, the number of channel groups, and the fewest
// groups worth handing a worker (minElemsPerWorker elements).
func bnShape(op string, x *Tensor, st *BatchNormStats) (chanPlanes, int, int) {
	c := len(st.RunMean)
	if len(x.shape) != 4 || x.shape[1] != c {
		panic(fmt.Sprintf("tensor: %s expects [N, %d, H, W], got %v", op, c, x.shape))
	}
	plane := x.shape[2] * x.shape[3]
	pl := chanPlanes{imgs: x.shape[0], stride: c * plane, plane: plane}
	if cap(st.sums) < 2*c {
		st.sums = make([]float64, 2*c)
	}
	groups := (c + bnGroup - 1) / bnGroup
	perGroup := max(bnGroup*pl.imgs*plane, 1)
	return pl, groups, (minElemsPerWorker + perGroup - 1) / perGroup
}

// BatchNormForward is batch normalization's training forward over x
// [N, C, H, W]: per channel the batch mean μ and biased variance σ², from
// float64 sums, then xhat = (x − μ)·inv and out = gamma·xhat + beta with
// inv = 1/√(σ²+eps). The running statistics move by momentum and
// st.InvStd keeps inv for BatchNormBackward. Every element of out and
// xhat is written. Groups of four channels split across the worker pool;
// each channel is one worker's from its sums to its last element, so the
// result does not depend on the split.
func BatchNormForward(out, xhat, x *Tensor, gamma, beta []float32, eps, momentum float32, st *BatchNormStats) {
	checkSame(out, x, "BatchNormForward")
	checkSame(xhat, x, "BatchNormForward")
	pl, groups, minGroups := bnShape("BatchNormForward", x, st)
	c := len(st.RunMean)
	if cap(st.InvStd) < c {
		st.InvStd = make([]float32, c)
	}
	st.InvStd = st.InvStd[:c]
	k := elemKernelsFor(currentGemmTier())
	if rowWorkers(groups, minGroups) <= 1 {
		bnForwardRange(k, 0, c, out.data, xhat.data, x.data, pl, gamma, beta, eps, momentum, st)
		return
	}
	parallelRows(groups, minGroups, func(lo, hi int) {
		bnForwardRange(k, lo*bnGroup, min(hi*bnGroup, c), out.data, xhat.data, x.data, pl, gamma, beta, eps, momentum, st)
	})
}

func bnForwardRange(k *elemKernels, c0, c1 int, out, xhat, x []float32, pl chanPlanes, gamma, beta []float32, eps, momentum float32, st *BatchNormStats) {
	c := len(st.RunMean)
	sa, sq := st.sums[c0:c1], st.sums[c+c0:c+c1]
	k.bnSums(sa, sq, x[c0*pl.plane:], x[c0*pl.plane:], pl)
	m := float64(pl.imgs * pl.plane)
	for j := range sa {
		ch := c0 + j
		mean := sa[j] / m
		variance := sq[j]/m - mean*mean
		if variance < 0 {
			variance = 0
		}
		inv := float32(1 / math.Sqrt(variance+float64(eps)))
		st.InvStd[ch] = inv
		st.RunMean[ch] = momentum*st.RunMean[ch] + (1-momentum)*float32(mean)
		st.RunVar[ch] = momentum*st.RunVar[ch] + (1-momentum)*float32(variance)
		o := ch * pl.plane
		k.bnNorm(xhat[o:], out[o:], x[o:], pl, float32(mean), inv, gamma[ch], beta[ch])
	}
}

// BatchNormBackward is BatchNormForward's backward: with s = Σgy and
// sx = Σgy·xhat per channel (float64 sums, rounded once), it adds s to
// gBeta and sx to gGamma and writes every element of gx = k·((m·gy − s) −
// xhat·sx), where m is the channel's population N·H·W and k =
// gamma·inv/m. Split across the worker pool like the forward.
func BatchNormBackward(gx, gy, xhat *Tensor, gamma, gGamma, gBeta []float32, st *BatchNormStats) {
	checkSame(gy, xhat, "BatchNormBackward")
	checkSame(gx, xhat, "BatchNormBackward")
	pl, groups, minGroups := bnShape("BatchNormBackward", xhat, st)
	c := len(st.RunMean)
	if len(st.InvStd) != c {
		panic("tensor: BatchNormBackward before a training BatchNormForward")
	}
	k := elemKernelsFor(currentGemmTier())
	if rowWorkers(groups, minGroups) <= 1 {
		bnBackwardRange(k, 0, c, gx.data, gy.data, xhat.data, pl, gamma, gGamma, gBeta, st)
		return
	}
	parallelRows(groups, minGroups, func(lo, hi int) {
		bnBackwardRange(k, lo*bnGroup, min(hi*bnGroup, c), gx.data, gy.data, xhat.data, pl, gamma, gGamma, gBeta, st)
	})
}

func bnBackwardRange(k *elemKernels, c0, c1 int, gx, gy, xhat []float32, pl chanPlanes, gamma, gGamma, gBeta []float32, st *BatchNormStats) {
	c := len(st.RunMean)
	sg, sgx := st.sums[c0:c1], st.sums[c+c0:c+c1]
	k.bnSums(sg, sgx, gy[c0*pl.plane:], xhat[c0*pl.plane:], pl)
	m := float32(pl.imgs * pl.plane)
	for j := range sg {
		ch := c0 + j
		s, sx := float32(sg[j]), float32(sgx[j])
		gBeta[ch] += s
		gGamma[ch] += sx
		o := ch * pl.plane
		k.bnGrad(gx[o:], gy[o:], xhat[o:], pl, gamma[ch]*st.InvStd[ch]/m, m, s, sx)
	}
}
