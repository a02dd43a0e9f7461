package tensor

import (
	"fmt"
	"math"

	"tbd/internal/prof"
)

// ConvOut returns the output spatial size for one dimension of a
// convolution or pooling with the given input size, kernel, stride, and
// symmetric padding.
func ConvOut(in, kernel, stride, pad int) int {
	return (in+2*pad-kernel)/stride + 1
}

// Im2Col lowers x [N, C, H, W] into a channel-major matrix of shape
// [N, C*kh*kw, outH*outW] — one contiguous [C*kh*kw, outH*outW] block per
// image, the layout Caffe's CPU im2col uses — so a convolution becomes one
// GEMM per image, mirroring the cuDNN GEMM-based convolution algorithms
// the paper's frameworks invoke. Channel-major beats the patch-major
// alternative on the host: each lowered row is a run of whole input rows,
// so filling it is span copies instead of kw-element fragments.
// The result is pool-backed; callers that are done with it may Release it.
func Im2Col(x *Tensor, kh, kw, stride, pad int) *Tensor {
	if x.Rank() != 4 {
		panic(fmt.Sprintf("tensor: Im2Col needs NCHW input, got %v", x.shape))
	}
	n, c, h, w := x.shape[0], x.shape[1], x.shape[2], x.shape[3]
	oh, ow := ConvOut(h, kh, stride, pad), ConvOut(w, kw, stride, pad)
	if oh <= 0 || ow <= 0 {
		panic(fmt.Sprintf("tensor: Im2Col produces empty output for %v k=%dx%d s=%d p=%d", x.shape, kh, kw, stride, pad))
	}
	sp := prof.Begin(prof.CatKernel, "im2col")
	if sp.Active() {
		// Pure data movement: one read of x, one write of the lowering.
		sp.SetBytes(4 * (int64(x.Numel()) + int64(n)*int64(c*kh*kw)*int64(oh*ow)))
	}
	// im2colRange writes every element (padding positions explicitly), so
	// the destination can skip the zero-fill memclr.
	out := acquireDirty(n, c*kh*kw, oh*ow)
	im2colRows(out, x, kh, kw, stride, pad)
	sp.End()
	return out
}

// im2colRows fills dst [N, C*kh*kw, oh*ow] from x, splitting lowered rows
// across the worker pool. Each row is written independently, so any split
// is bit-identical.
func im2colRows(dst, x *Tensor, kh, kw, stride, pad int) {
	n, c := x.shape[0], x.shape[1]
	ckk := c * kh * kw
	oh := ConvOut(x.shape[2], kh, stride, pad)
	ow := ConvOut(x.shape[3], kw, stride, pad)
	minRows := 1 + minElemsPerWorker/(oh*ow+1)
	if rowWorkers(n*ckk, minRows) <= 1 {
		im2colRange(dst.data, x.data, c, x.shape[2], x.shape[3], oh, ow, kh, kw, stride, pad, 0, n*ckk)
		return
	}
	parallelRows(n*ckk, minRows, func(rlo, rhi int) {
		im2colRange(dst.data, x.data, c, x.shape[2], x.shape[3], oh, ow, kh, kw, stride, pad, rlo, rhi)
	})
}

// im2colRange writes lowered rows [rlo, rhi), where row index r encodes
// (image, channel, ky, kx). Every element is stored — out-of-bounds taps
// get explicit zeros — so dst may be dirty. For stride 1 each output row
// segment is one contiguous copy from the input row, clipped at the
// padding borders.
func im2colRange(dst, x []float32, c, h, w, oh, ow, kh, kw, stride, pad, rlo, rhi int) {
	ckk := c * kh * kw
	ohw := oh * ow
	for r := rlo; r < rhi; r++ {
		b := r / ckk
		colIdx := r - b*ckk
		ch := colIdx / (kh * kw)
		rem := colIdx - ch*kh*kw
		ky := rem / kw
		kx := rem - ky*kw
		plane := x[(b*c+ch)*h*w : (b*c+ch+1)*h*w]
		drow := dst[r*ohw : (r+1)*ohw]
		for oy := 0; oy < oh; oy++ {
			iy := oy*stride + ky - pad
			d := drow[oy*ow : (oy+1)*ow]
			if iy < 0 || iy >= h {
				for t := range d {
					d[t] = 0
				}
				continue
			}
			srow := plane[iy*w : (iy+1)*w]
			if stride == 1 {
				// Valid taps satisfy 0 <= ox+off < w; a kernel wider than
				// the padded input makes that range empty (lo > ow or
				// hi < 0), so both bounds are clamped into [0, ow].
				off := kx - pad // ix = ox + off
				lo, hi := 0, ow
				if off < 0 {
					lo = -off
					if lo > ow {
						lo = ow
					}
				}
				if ow+off > w {
					hi = w - off
				}
				if hi < lo {
					hi = lo
				}
				for t := 0; t < lo; t++ {
					d[t] = 0
				}
				if hi > lo {
					copy(d[lo:hi], srow[lo+off:hi+off])
				}
				for t := hi; t < ow; t++ {
					d[t] = 0
				}
				continue
			}
			for ox := 0; ox < ow; ox++ {
				if ix := ox*stride + kx - pad; ix >= 0 && ix < w {
					d[ox] = srow[ix]
				} else {
					d[ox] = 0
				}
			}
		}
	}
}

// Col2Im scatters the gradient of an Im2Col matrix back to input layout.
// cols has the channel-major shape [N, C*kh*kw, outH*outW]; the result has
// shape [N, C, H, W] and is pool-backed. Images are split across the
// worker pool — lowered rows overlap within an image but never across
// images, so the += scatter order per element is unchanged by the split.
func Col2Im(cols *Tensor, n, c, h, w, kh, kw, stride, pad int) *Tensor {
	sp := prof.Begin(prof.CatKernel, "col2im")
	if sp.Active() {
		sp.SetBytes(4 * (int64(cols.Numel()) + int64(n)*int64(c)*int64(h)*int64(w)))
	}
	out := Acquire(n, c, h, w)
	col2imInto(out, cols, n, c, h, w, kh, kw, stride, pad)
	sp.End()
	return out
}

func col2imInto(out, cols *Tensor, n, c, h, w, kh, kw, stride, pad int) {
	if rowWorkers(n, 1) <= 1 {
		col2imRange(out.data, cols.data, c, h, w, kh, kw, stride, pad, 0, n)
		return
	}
	parallelRows(n, 1, func(blo, bhi int) {
		col2imRange(out.data, cols.data, c, h, w, kh, kw, stride, pad, blo, bhi)
	})
}

// col2imRange scatter-adds images [blo, bhi). For stride 1 each lowered
// row segment accumulates into one contiguous clipped span of the input
// row, the mirror image of im2colRange's copy.
func col2imRange(out, cols []float32, c, h, w, kh, kw, stride, pad, blo, bhi int) {
	ckk := c * kh * kw
	oh, ow := ConvOut(h, kh, stride, pad), ConvOut(w, kw, stride, pad)
	ohw := oh * ow
	for b := blo; b < bhi; b++ {
		for colIdx := 0; colIdx < ckk; colIdx++ {
			ch := colIdx / (kh * kw)
			rem := colIdx - ch*kh*kw
			ky := rem / kw
			kx := rem - ky*kw
			plane := out[(b*c+ch)*h*w : (b*c+ch+1)*h*w]
			srow := cols[(b*ckk+colIdx)*ohw : (b*ckk+colIdx+1)*ohw]
			for oy := 0; oy < oh; oy++ {
				iy := oy*stride + ky - pad
				if iy < 0 || iy >= h {
					continue
				}
				s := srow[oy*ow : (oy+1)*ow]
				if stride == 1 {
					// Same clamping as im2colRange: a kernel wider than the
					// padded input leaves no valid taps for this (ky, kx).
					off := kx - pad
					lo, hi := 0, ow
					if off < 0 {
						lo = -off
						if lo > ow {
							lo = ow
						}
					}
					if ow+off > w {
						hi = w - off
					}
					if hi < lo {
						hi = lo
					}
					if hi > lo {
						// Align both spans so the single range check covers
						// the load and the store.
						sv := s[lo:hi]
						d := plane[iy*w+lo+off : iy*w+hi+off][:len(sv)]
						for t := range sv {
							d[t] += sv[t]
						}
					}
					continue
				}
				drow := plane[iy*w : (iy+1)*w]
				for ox := 0; ox < ow; ox++ {
					if ix := ox*stride + kx - pad; ix >= 0 && ix < w {
						drow[ix] += s[ox]
					}
				}
			}
		}
	}
}

// conv1x1Direct reports whether the convolution is a pointwise (1x1,
// stride 1, no padding) product, for which the im2col lowering of x is x
// itself viewed as [N, C, H*W] — no copy, no workspace.
func conv1x1Direct(kh, kw, stride, pad int) bool {
	return kh == 1 && kw == 1 && stride == 1 && pad == 0
}

// Conv2D computes a 2-D convolution of x [N, C, H, W] with weights
// w [F, C, kh, kw], returning a pool-backed [N, F, outH, outW].
func Conv2D(x, w *Tensor, stride, pad int) *Tensor {
	return Conv2DFused(x, w, nil, ActNone, stride, pad)
}

// Conv2DFused is Conv2D with a per-channel bias (may be nil) and an
// activation fused into the GEMM write-back, bit-identical to the unfused
// Conv2D + bias pass + activation pass composition.
func Conv2DFused(x, w, bias *Tensor, act ActKind, stride, pad int) *Tensor {
	out, cols := conv2DForward(x, w, bias, act, stride, pad)
	if cols != x {
		cols.Release()
	}
	return out
}

// Conv2DWithColsFused is Conv2DFused that also returns the im2col lowering
// of x for Conv2DBackwardCols. For a pointwise convolution (1x1, stride 1,
// no padding) the lowering is x itself and cols is x: the caller releases
// cols only when it is not x.
func Conv2DWithColsFused(x, w, bias *Tensor, act ActKind, stride, pad int) (out, cols *Tensor) {
	return conv2DForward(x, w, bias, act, stride, pad)
}

// conv2DForward implements all Conv2D forward variants. Each image's
// output block [F, oh*ow] is w [F, C*kh*kw] times that image's lowered
// block — a plain GEMM written straight into NCHW layout, with no reorder
// pass. Images are split across the worker pool; the optional epilogue
// (per-channel bias = per-GEMM-row bias, then activation) is applied by
// the GEMM write-back.
func conv2DForward(x, w, bias *Tensor, act ActKind, stride, pad int) (out, cols *Tensor) {
	if x.Rank() != 4 || w.Rank() != 4 {
		panic(fmt.Sprintf("tensor: Conv2D needs NCHW/FCHW, got %v, %v", x.shape, w.shape))
	}
	if x.shape[1] != w.shape[1] {
		panic(fmt.Sprintf("tensor: Conv2D channel mismatch %v, %v", x.shape, w.shape))
	}
	n, f := x.shape[0], w.shape[0]
	kh, kw := w.shape[2], w.shape[3]
	oh, ow := ConvOut(x.shape[2], kh, stride, pad), ConvOut(x.shape[3], kw, stride, pad)
	ckk := x.shape[1] * kh * kw
	ohw := oh * ow
	if bias != nil && (bias.Rank() != 1 || bias.shape[0] != f) {
		panic(fmt.Sprintf("tensor: Conv2D bias %v, want [%d]", bias.shape, f))
	}
	sp := prof.Begin(prof.CatKernel, "conv2d.fwd")
	if sp.Active() {
		sp.SetFLOPs(2 * float64(n) * float64(f) * float64(ckk) * float64(ohw))
		sp.SetBytes(4 * (int64(x.Numel()) + int64(w.Numel()) + int64(n)*int64(f)*int64(ohw)))
	}
	if conv1x1Direct(kh, kw, stride, pad) {
		cols = x // NCHW x is already [N, C, H*W] in memory
	} else {
		cols = Im2Col(x, kh, kw, stride, pad) // [N, C*kh*kw, oh*ow]
	}
	var epv epilogue
	var ep *epilogue
	if bias != nil {
		epv = epilogue{rowBias: bias.data, act: act}
		ep = &epv
	} else if act != ActNone {
		epv = epilogue{act: act}
		ep = &epv
	}
	out = acquireDirty(n, f, oh, ow)
	convFwd(out.data, w.data, cols.data, n, f, ckk, ohw, ep)
	sp.End()
	return out, cols
}

// convFwd writes every image's output block, images split across the
// worker pool. Only the parallel branch allocates: its closure escapes to
// the pool, so it captures a heap copy of the epilogue rather than ep.
func convFwd(dst, w, cols []float32, n, f, ckk, ohw int, ep *epilogue) {
	if rowWorkers(n, 1) <= 1 {
		convFwdImages(dst, w, cols, f, ckk, ohw, 0, n, ep)
		return
	}
	epc := ep.heapCopy()
	parallelRows(n, 1, func(blo, bhi int) {
		convFwdImages(dst, w, cols, f, ckk, ohw, blo, bhi, epc)
	})
}

func convFwdImages(dst, w, cols []float32, f, ckk, ohw, blo, bhi int, ep *epilogue) {
	for b := blo; b < bhi; b++ {
		gemmSerial(dst[b*f*ohw:(b+1)*f*ohw], w, cols[b*ckk*ohw:(b+1)*ckk*ohw], f, ckk, ohw, layPlain, false, ep)
	}
}

// Conv2DBackward computes the gradients of a Conv2D. Given upstream gradient
// gy [N, F, outH, outW], it returns pool-backed (gx, gw) matching x and w.
func Conv2DBackward(x, w, gy *Tensor, stride, pad int) (gx, gw *Tensor) {
	kh, kw := w.shape[2], w.shape[3]
	cols := Im2Col(x, kh, kw, stride, pad)
	gx, gw = Conv2DBackwardCols(cols, x.shape, w, gy, stride, pad)
	cols.Release()
	return gx, gw
}

// Conv2DBackwardCols is Conv2DBackward taking the forward pass's im2col
// lowering (from Conv2DWithCols) instead of recomputing it, plus the
// original input shape. Both gradients are computed per image directly
// from NCHW-layout gy: gw accumulates gy_b @ cols_bᵀ over images in fixed
// order, and the lowered input gradient is wᵀ @ gy_b per image.
func Conv2DBackwardCols(cols *Tensor, xShape []int, w, gy *Tensor, stride, pad int) (gx, gw *Tensor) {
	n, c, h, wid := xShape[0], xShape[1], xShape[2], xShape[3]
	f, kh, kw := w.shape[0], w.shape[2], w.shape[3]
	oh, ow := ConvOut(h, kh, stride, pad), ConvOut(wid, kw, stride, pad)
	ohw := oh * ow
	ckk := c * kh * kw
	sp := prof.Begin(prof.CatKernel, "conv2d.bwd")
	if sp.Active() {
		// Two GEMMs per image (weight gradient and lowered input gradient),
		// each 2·f·ckk·ohw multiply-adds.
		sp.SetFLOPs(4 * float64(n) * float64(f) * float64(ckk) * float64(ohw))
		sp.SetBytes(4 * (int64(cols.Numel()) + int64(gy.Numel()) + int64(w.Numel()) + int64(n)*int64(c)*int64(h)*int64(wid)))
	}
	// gw is shaped [F, C, kh, kw] directly (no reshape view, so the buffer
	// keeps pool ownership). The image loop stays serial — accumulation
	// order is image-major — while workers split gw's output rows inside
	// each image's GEMM, which keeps every element's accumulation order
	// independent of the worker count.
	gw = Acquire(f, c, kh, kw)
	for b := 0; b < n; b++ {
		gyb := gy.data[b*f*ohw : (b+1)*f*ohw]
		colsb := cols.data[b*ckk*ohw : (b+1)*ckk*ohw]
		gemmParallel(gw.data, gyb, colsb, f, ohw, ckk, layTransB, true, nil)
	}
	if conv1x1Direct(kh, kw, stride, pad) {
		// Pointwise fast path: the lowered gradient IS the input gradient
		// ([ckk, ohw] = [C, H*W] per image), so skip the gcols buffer and
		// the Col2Im scatter (which would add each element exactly once)
		// and write wᵀ @ gy_b straight into gx.
		gx = acquireDirty(n, c, h, wid)
		convBwdData(gx.data, gy.data, w.data, n, f, ohw, ckk)
		sp.End()
		return gx, gw
	}
	gcols := acquireDirty(n, ckk, ohw)
	convBwdData(gcols.data, gy.data, w.data, n, f, ohw, ckk)
	gx = Col2Im(gcols, n, c, h, wid, kh, kw, stride, pad)
	gcols.Release()
	sp.End()
	return gx, gw
}

// convBwdData writes every image's lowered input gradient, images split
// across the worker pool. Only the parallel branch allocates (its closure).
func convBwdData(gcols, gy, w []float32, n, f, ohw, ckk int) {
	if rowWorkers(n, 1) <= 1 {
		convBwdDataImages(gcols, gy, w, f, ohw, ckk, 0, n)
		return
	}
	parallelRows(n, 1, func(blo, bhi int) {
		convBwdDataImages(gcols, gy, w, f, ohw, ckk, blo, bhi)
	})
}

func convBwdDataImages(gcols, gy, w []float32, f, ohw, ckk, blo, bhi int) {
	for b := blo; b < bhi; b++ {
		// gcols_b [ckk, ohw] = wᵀ [ckk, f] @ gy_b [f, ohw]
		gemmSerial(gcols[b*ckk*ohw:(b+1)*ckk*ohw], w, gy[b*f*ohw:(b+1)*f*ohw], ckk, f, ohw, layTransA, false, nil)
	}
}

// MaxPool2D computes max pooling over x [N, C, H, W] and returns the pooled
// tensor plus the flat argmax indices needed by the backward pass. Planes
// are split across the worker pool.
func MaxPool2D(x *Tensor, k, stride int) (*Tensor, []int) {
	n, c, h, w := x.shape[0], x.shape[1], x.shape[2], x.shape[3]
	oh, ow := ConvOut(h, k, stride, 0), ConvOut(w, k, stride, 0)
	out := acquireDirty(n, c, oh, ow)
	idx := make([]int, out.Numel())
	if rowWorkers(n*c, 1) <= 1 {
		maxPoolPlanes(out.data, idx, x.data, h, w, oh, ow, k, stride, 0, n*c)
		return out, idx
	}
	parallelRows(n*c, 1, func(plo, phi int) {
		maxPoolPlanes(out.data, idx, x.data, h, w, oh, ow, k, stride, plo, phi)
	})
	return out, idx
}

func maxPoolPlanes(dst []float32, idx []int, x []float32, h, w, oh, ow, k, stride, plo, phi int) {
	for pl := plo; pl < phi; pl++ {
		plane := x[pl*h*w : (pl+1)*h*w]
		pbase := pl * h * w
		o := pl * oh * ow
		for oy := 0; oy < oh; oy++ {
			for ox := 0; ox < ow; ox++ {
				best := float32(math.Inf(-1))
				bi := -1
				for ky := 0; ky < k; ky++ {
					for kx := 0; kx < k; kx++ {
						iy, ix := oy*stride+ky, ox*stride+kx
						if iy < h && ix < w {
							v := plane[iy*w+ix]
							if v > best {
								best, bi = v, pbase+iy*w+ix
							}
						}
					}
				}
				dst[o] = best
				idx[o] = bi
				o++
			}
		}
	}
}

// MaxPool2DBackward scatters gy back through the argmax indices produced by
// MaxPool2D.
func MaxPool2DBackward(gy *Tensor, idx []int, inShape []int) *Tensor {
	gx := Acquire(inShape...)
	for i, v := range gy.data {
		gx.data[idx[i]] += v
	}
	return gx
}

// AvgPool2D computes average pooling over x [N, C, H, W], planes split
// across the worker pool.
func AvgPool2D(x *Tensor, k, stride int) *Tensor {
	n, c, h, w := x.shape[0], x.shape[1], x.shape[2], x.shape[3]
	oh, ow := ConvOut(h, k, stride, 0), ConvOut(w, k, stride, 0)
	out := acquireDirty(n, c, oh, ow)
	inv := 1 / float32(k*k)
	if rowWorkers(n*c, 1) <= 1 {
		avgPoolPlanes(out.data, x.data, h, w, oh, ow, k, stride, inv, 0, n*c)
		return out
	}
	parallelRows(n*c, 1, func(plo, phi int) {
		avgPoolPlanes(out.data, x.data, h, w, oh, ow, k, stride, inv, plo, phi)
	})
	return out
}

func avgPoolPlanes(dst, x []float32, h, w, oh, ow, k, stride int, inv float32, plo, phi int) {
	for pl := plo; pl < phi; pl++ {
		plane := x[pl*h*w : (pl+1)*h*w]
		o := pl * oh * ow
		for oy := 0; oy < oh; oy++ {
			for ox := 0; ox < ow; ox++ {
				var s float32
				for ky := 0; ky < k; ky++ {
					for kx := 0; kx < k; kx++ {
						s += plane[(oy*stride+ky)*w+ox*stride+kx]
					}
				}
				dst[o] = s * inv
				o++
			}
		}
	}
}

// AvgPool2DBackward distributes gy evenly over each pooling window.
func AvgPool2DBackward(gy *Tensor, inShape []int, k, stride int) *Tensor {
	n, c, h, w := inShape[0], inShape[1], inShape[2], inShape[3]
	oh, ow := ConvOut(h, k, stride, 0), ConvOut(w, k, stride, 0)
	gx := Acquire(inShape...)
	inv := 1 / float32(k*k)
	o := 0
	for b := 0; b < n; b++ {
		for ch := 0; ch < c; ch++ {
			base := (b*c + ch) * h * w
			for oy := 0; oy < oh; oy++ {
				for ox := 0; ox < ow; ox++ {
					g := gy.data[o] * inv
					for ky := 0; ky < k; ky++ {
						for kx := 0; kx < k; kx++ {
							gx.data[base+(oy*stride+ky)*w+ox*stride+kx] += g
						}
					}
					o++
				}
			}
		}
	}
	return gx
}
