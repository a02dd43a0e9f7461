package tensor

// The batch-wide lowering the convolution ran on before each image was
// lowered straight into its GEMM's operand: Im2Col builds the whole
// [N, C·kh·kw, oh·ow] lowering, Col2Im scatters one back. No program calls
// them; they stay here as the reference convRef computes with, checked in
// turn against the per-element references of parallel_test.go.

import "fmt"

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
	// im2colRange writes every element (padding positions explicitly), so
	// the destination can skip the zero-fill memclr.
	out := acquireDirty(n, c*kh*kw, oh*ow)
	im2colRows(out, x, kh, kw, stride, pad)
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
	out := Acquire(n, c, h, w)
	col2imInto(out, cols, n, c, h, w, kh, kw, stride, pad)
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

// convRef is the reference the convolution is fuzzed against: the
// batch-wide lowering, then per image the forward GEMM (with the fused
// epilogue), the weight-gradient GEMM accumulated in image order and the
// lowered input gradient, scattered back by Col2Im. It takes the GEMM
// entry points the convolution took before its lowering moved into the
// panel, so on every tier it gives the bits Conv2DFused and
// Conv2DBackward must.
func convRef(x, w, bias *Tensor, act ActKind, gy *Tensor, stride, pad int) (y, gx, gw *Tensor) {
	n, c, h, wd := x.Dim(0), x.Dim(1), x.Dim(2), x.Dim(3)
	f, kh, kw := w.Dim(0), w.Dim(2), w.Dim(3)
	oh, ow := ConvOut(h, kh, stride, pad), ConvOut(wd, kw, stride, pad)
	ckk, ohw := c*kh*kw, oh*ow
	cols := Im2Col(x, kh, kw, stride, pad)
	var ep *epilogue
	if bias != nil {
		ep = &epilogue{rowBias: bias.Data(), act: act}
	} else if act != ActNone {
		ep = &epilogue{act: act}
	}
	y = New(n, f, oh, ow)
	gw = New(f, c, kh, kw)
	gcols := New(n, ckk, ohw)
	for b := 0; b < n; b++ {
		colsb := cols.Data()[b*ckk*ohw : (b+1)*ckk*ohw]
		gemmSerial(y.Data()[b*f*ohw:(b+1)*f*ohw], w.Data(), colsb, f, ckk, ohw, layPlain, false, ep)
		gyb := gy.Data()[b*f*ohw : (b+1)*f*ohw]
		gemmParallel(gw.Data(), gyb, colsb, f, ohw, ckk, layTransB, true, nil)
		gemmSerial(gcols.Data()[b*ckk*ohw:(b+1)*ckk*ohw], w.Data(), gyb, ckk, f, ohw, layTransA, false, nil)
	}
	if kh == 1 && kw == 1 && stride == 1 && pad == 0 {
		// A pointwise lowered gradient is the input gradient: no scatter
		// (which would turn a -0 into +0).
		return y, gcols.Reshape(n, c, h, wd), gw
	}
	return y, Col2Im(gcols, n, c, h, wd, kh, kw, stride, pad), gw
}
