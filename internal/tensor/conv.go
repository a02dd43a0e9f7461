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

// A convolution runs one image at a time as a GEMM over that image's
// lowering: the channel-major [C·kh·kw, oh·ow] matrix of Caffe's CPU
// im2col, row (ch, ky, kx) holding that tap of every output pixel, so
// image b's output block [F, oh·ow] is w [F, C·kh·kw] times it, written
// straight into NCHW layout (the cuDNN GEMM-based algorithm the paper's
// frameworks invoke). The lowering is transient workspace, where the paper
// books it: each image's is written into pack-pool scratch from a
// zero-padded copy of the image, so no tap tests a bound, read while it is
// still in L2 and never kept. The layer stashes x alone; the backward pass
// lowers again.
//
// Where the lowering goes:
//
//	panel   the forward on the avx2 tier, F a whole number of 8-row tiles
//	        and a product the 8x8 driver takes (wideWorthIt): the lowering
//	        is written as the plain B panel gemm_wide.go's tile nest reads
//	        (k = C·kh·kw in gemmKC blocks, m = oh·ow), its ragged columns
//	        column-major beside it as FrozenMatrix keeps them, so nothing
//	        is packed. A strip of 8 neighbours in one output row is one
//	        32-byte move per tap (lowerStripVec); other strips gather.
//	panelT  the weight gradient under the same conditions: the lowering is
//	        written as the transposed-B panel (k = oh·ow, one block, m =
//	        C·kh·kw), 8 taps by 8 pixels at a time through an 8x8 register
//	        transpose (panelTVec), its ragged taps row-major beside it,
//	        where gemmEdgeCols reads them. Lowering and pack are one pass.
//	rows    every other tier and shape: the lowering is written row-major
//	        and the ordinary GEMM reads (and packs) it.
//	direct  a pointwise convolution (1x1, stride 1, no padding): x_b, an
//	        [C, H·W] matrix already, is its own lowering.
//
// The input gradient is per image on every tier: wᵀ·gy_b lands in an
// L2-sized scratch [C·kh·kw, oh·ow] that is scattered into gx_b at once
// (col2im). At stride 1 each tap's in-bounds pixels are one block, added
// by one call (addBlockVec on the avx2 tier, addBlockGo elsewhere).
//
// The vector bodies (conv_avx2_amd64.s) run on the avx2 tier only, and
// each has a portable body it matches (conv_vec.go).
//
// Bits: a panel holds the very values, in the very places, that the wide
// driver's pack of the row-major lowering would, and the same tile nest,
// kernels, edge-column orders and epilogue run over it; the scatter adds
// the same values in the same tap order. So every path gives the bits of
// a batch-wide Im2Col, per-image GEMMs and a Col2Im (convRef in the
// tests), serial or parallel, on every tier.

// convGeom is one convolution's geometry: the input image [c, h, w], the
// kh x kw taps, the output [oh, ow], and the zero-padded image [c, hp, wp]
// the lowerings read. The padded image also covers a last window that
// overhangs the far border (stride > 1), so every tap is inside it.
type convGeom struct {
	c, h, w, kh, kw, stride, pad int
	oh, ow, hp, wp               int
}

func newConvGeom(c, h, w, kh, kw, stride, pad int) convGeom {
	g := convGeom{c: c, h: h, w: w, kh: kh, kw: kw, stride: stride, pad: pad,
		oh: ConvOut(h, kh, stride, pad), ow: ConvOut(w, kw, stride, pad)}
	if g.oh <= 0 || g.ow <= 0 {
		panic(fmt.Sprintf("tensor: convolution of [%d %d %d] k=%dx%d s=%d p=%d has an empty output", c, h, w, kh, kw, stride, pad))
	}
	g.hp = max(h+2*pad, (g.oh-1)*stride+kh)
	g.wp = max(w+2*pad, (g.ow-1)*stride+kw)
	return g
}

func (g *convGeom) ckk() int { return g.c * g.kh * g.kw }
func (g *convGeom) ohw() int { return g.oh * g.ow }
func (g *convGeom) chw() int { return g.c * g.h * g.w }

// pointwise reports whether image b's lowering is x_b itself.
func (g *convGeom) pointwise() bool {
	return g.kh == 1 && g.kw == 1 && g.stride == 1 && g.pad == 0
}

// tap returns lowered row r's offset in the padded image, and its (ky, kx).
func (g *convGeom) tap(r int) (off, ky, kx int) {
	ch := r / (g.kh * g.kw)
	rem := r - ch*g.kh*g.kw
	ky = rem / g.kw
	kx = rem - ky*g.kw
	return (ch*g.hp+ky)*g.wp + kx, ky, kx
}

// nextTap steps tap's result from lowered row r to row r+1.
func (g *convGeom) nextTap(off, ky, kx int) (int, int, int) {
	off++
	if kx++; kx == g.kw {
		kx = 0
		off += g.wp - g.kw
		if ky++; ky == g.kh {
			ky = 0
			off += (g.hp - g.kh) * g.wp
		}
	}
	return off, ky, kx
}

// pixel returns output pixel j's offset from a tap's in the padded image.
func (g *convGeom) pixel(j int) int {
	oy := j / g.ow
	return (oy*g.wp + j - oy*g.ow) * g.stride
}

// padScratch returns zeroed scratch for one padded image, or nil when the
// image needs no border and the lowerings read x_b itself.
func (g *convGeom) padScratch() []float32 {
	if g.hp == g.h && g.wp == g.w {
		return nil
	}
	xp := getPackBuf(g.c * g.hp * g.wp)
	clear(xp)
	return xp
}

// padded returns image xb as the lowerings read it: xb itself when xp is
// nil, else xb copied into xp's interior (the border stays zero, so one
// scratch serves image after image).
func (g *convGeom) padded(xp, xb []float32) []float32 {
	if xp == nil {
		return xb
	}
	for ch := 0; ch < g.c; ch++ {
		for iy := 0; iy < g.h; iy++ {
			copy(xp[(ch*g.hp+iy+g.pad)*g.wp+g.pad:][:g.w], xb[(ch*g.h+iy)*g.w:][:g.w])
		}
	}
	return xp
}

// lowerRow writes one lowered row: the tap whose offset src starts at,
// at every output pixel in order.
func (g *convGeom) lowerRow(row, src []float32) {
	if g.stride == 1 {
		for oy := 0; oy < g.oh; oy++ {
			copy(row[oy*g.ow:][:g.ow], src[oy*g.wp:][:g.ow])
		}
		return
	}
	j := 0
	for oy := 0; oy < g.oh; oy++ {
		s := src[oy*g.stride*g.wp:]
		for ox := 0; ox < g.ow; ox++ {
			row[j] = s[ox*g.stride]
			j++
		}
	}
}

// lowerRows writes an image's lowering row-major into cols
// [C·kh·kw, oh·ow] from its padded form xp.
func (g *convGeom) lowerRows(cols, xp []float32) {
	ohw := g.ohw()
	off, ky, kx := 0, 0, 0
	for r := 0; r < g.ckk(); r++ {
		g.lowerRow(cols[r*ohw:][:ohw], xp[off:])
		off, ky, kx = g.nextTap(off, ky, kx)
	}
}

// tapOffsets fills offs[p] with lowered row pc+p's offset in the padded
// image. The offsets ascend.
func (g *convGeom) tapOffsets(offs []int, pc int) {
	off, ky, kx := g.tap(pc)
	for p := range offs {
		offs[p] = off
		off, ky, kx = g.nextTap(off, ky, kx)
	}
}

// lowerPanel writes an image's lowering from its padded form xp as the
// forward's plain-layout panel: bp[pc*m8 + j0*kc + p*8 + c] = tap pc+p of
// output pixel j0+c (gemm_wide.go's layout, k = C·kh·kw, m = oh·ow), then
// the ragged pixels [m8, m) column-major, bp[k*m8 + (j-m8)*k + p]. A
// strip of eight neighbours in one output row at stride 1 is one
// contiguous run of a padded input row per tap, which lowerStripVec
// moves; the other strips gather pixel by pixel.
func (g *convGeom) lowerPanel(bp, xp []float32) {
	k, m := g.ckk(), g.ohw()
	m8 := m &^ 7
	edge := bp[k*m8:]
	var tab [gemmKC]int
	for pc := 0; pc < k; pc += gemmKC {
		kc := min(gemmKC, k-pc)
		offs := tab[:kc]
		g.tapOffsets(offs, pc)
		blk := bp[pc*m8:]
		for j0 := 0; j0 < m8; j0 += 8 {
			strip := blk[j0*kc:][:8*kc]
			if ox := j0 % g.ow; g.stride == 1 && ox+8 <= g.ow {
				lowerStripVec(strip, xp[g.pixel(j0):], offs)
				continue
			}
			var pix [8]int
			for c := range pix {
				pix[c] = g.pixel(j0 + c)
			}
			for p, off := range offs {
				s := xp[off:]
				q := (*[8]float32)(strip[p*8:])
				q[0], q[1], q[2], q[3] = s[pix[0]], s[pix[1]], s[pix[2]], s[pix[3]]
				q[4], q[5], q[6], q[7] = s[pix[4]], s[pix[5]], s[pix[6]], s[pix[7]]
			}
		}
		for j := m8; j < m; j++ {
			col := edge[(j-m8)*k+pc:][:kc]
			src := xp[g.pixel(j):]
			for p, off := range offs {
				col[p] = src[off]
			}
		}
	}
}

// lowerPanelT writes an image's lowering from its padded form xp as the
// weight gradient's transposed-B panel, for the product gy_b [F, oh·ow]
// times the lowering's transpose (k = oh·ow, m = C·kh·kw, one block of
// depth k): bp[j0*k + p*8 + c] = tap j0+c at output pixel p, what
// packBRangeWide packs from the row-major lowering. Each 8-tap strip goes
// through panelTVec output row by output row at stride 1, pixel by pixel
// otherwise; the ragged taps [m8, m) follow row-major, bp[j*k + p], where
// gemmEdgeCols reads them with bp as its b.
func (g *convGeom) lowerPanelT(bp, xp []float32) {
	k, m := g.ohw(), g.ckk()
	m8 := m &^ 7
	var offs [8]int
	for j0 := 0; j0 < m8; j0 += 8 {
		g.tapOffsets(offs[:], j0)
		strip := bp[j0*k:][:8*k]
		if g.stride == 1 {
			panelTVec(strip, xp, &offs, g.oh, g.ow, g.wp, 8*g.ow)
			continue
		}
		for p := 0; p < k; p++ {
			panelTGo(strip[p*8:], xp[g.pixel(p):], &offs, 1, 1, 0, 0)
		}
	}
	for j := m8; j < m; j++ {
		off, _, _ := g.tap(j)
		g.lowerRow(bp[j*k:][:k], xp[off:])
	}
}

// scatter adds an image's lowered gradient cols [C·kh·kw, oh·ow] into gxb
// [C, H, W] (zeroed by the caller) in tap order, dropping the taps that
// fall in the padding. At stride 1 a tap's in-bounds pixels are one
// rows × cols block on both sides, added by one call: addBlockVec when
// vec is set (the avx2 tier), else addBlockGo.
func (g *convGeom) scatter(gxb, cols []float32, vec bool) {
	ohw, hw := g.ohw(), g.h*g.w
	for r := 0; r < g.ckk(); r++ {
		_, ky, kx := g.tap(r)
		plane := gxb[r/(g.kh*g.kw)*hw:][:hw]
		srow := cols[r*ohw:][:ohw]
		if g.stride == 1 {
			// Output pixels (oy, ox) with oy in [yLo, yHi) and ox in
			// [lo, hi) land inside the image, at (oy+dy, ox+dx).
			dy, dx := ky-g.pad, kx-g.pad
			yLo, yHi := max(0, -dy), min(g.oh, g.h-dy)
			lo, hi := max(0, -dx), min(g.ow, g.w-dx)
			if yLo >= yHi || lo >= hi {
				continue
			}
			rows, n := yHi-yLo, hi-lo
			if n == g.ow && g.ow == g.w {
				// Whole rows on both sides: the band is one segment.
				rows, n = 1, rows*n
			}
			d, s := plane[(yLo+dy)*g.w+lo+dx:], srow[yLo*g.ow+lo:]
			if vec {
				addBlockVec(d, s, rows, n, g.w, g.ow)
			} else {
				addBlockGo(d, s, rows, n, g.w, g.ow)
			}
			continue
		}
		for oy := 0; oy < g.oh; oy++ {
			iy := oy*g.stride + ky - g.pad
			if iy < 0 || iy >= g.h {
				continue
			}
			drow := plane[iy*g.w:][:g.w]
			s := srow[oy*g.ow:][:g.ow]
			for ox := range s {
				if ix := ox*g.stride + kx - g.pad; ix >= 0 && ix < g.w {
					drow[ix] += s[ox]
				}
			}
		}
	}
}

// panelFits reports whether the forward's n×k×m product runs off the
// panel its lowering writes (see the file header).
func panelFits(n, k, m int) bool {
	return currentGemmTier() == tierAVX2 && wideWorthIt(n, k, m) && n%microMW == 0
}

// panelRows runs all n rows, whole 8-row tiles, of the plain n×k×m
// product a·b off the panel a lowering wrote into bp, the ragged columns
// read column-major from beyond it (edgeColsPlain).
func panelRows(dst, a, bp []float32, n, k, m int, ep *epilogue) {
	edge := bp[k*(m&^7):]
	gemmWideTiles(dst, a, bp, n, k, m, gemmKC, 0, n, layPlain, false, kernelTree8x8, kernelTree8x8, func(i0 int) {
		edgeColsPlain(dst, a, edge, k, m, i0, i0+microMW)
		applyEpilogueRows(dst, m, i0, i0+microMW, ep)
	})
}

// panelRowsT accumulates rows [lo, hi), whole 8-row tiles, of the
// transposed-B n×k×m product a·bᵀ into dst off the panel lowerPanelT
// wrote into bp: the tile nest, kernels and edge columns
// gemmPackedRowsWide runs for that product, so the same bits.
func panelRowsT(dst, a, bp []float32, n, k, m, lo, hi int) {
	gemmWideTiles(dst, a, bp, n, k, m, k, lo, hi, layTransB, true, kernelSeq8x8, kernelTree8x8, func(i0 int) {
		gemmEdgeCols(dst, a, bp, n, k, m, i0, i0+microMW, layTransB, true, m&^7)
	})
}

// lowerSpan opens the span of one image's lowering or scatter, a leaf
// under the convolution's kernel span: workers run images side by side,
// so the parent edge is explicit and the span never becomes ambient. The
// spans keep this memory-bound work apart from the GEMMs in conv2d.*'s
// self time, which a kernel-tier what-if scales.
func lowerSpan(parent *prof.Span, name string, elems int) prof.Span {
	sp := prof.BeginLeaf(parent, prof.CatKernel, name)
	if sp.Active() {
		sp.SetBytes(4 * int64(elems))
	}
	return sp
}

// Conv2DFused computes a 2-D convolution of x [N, C, H, W] with weights
// w [F, C, kh, kw], returning a pool-backed [N, F, outH, outW], with a
// per-channel bias (may be nil) and an activation fused into the GEMM
// write-back, bit-identical to the unfused convolution + bias pass +
// activation pass composition. Images are split across the worker pool.
func Conv2DFused(x, w, bias *Tensor, act ActKind, stride, pad int) *Tensor {
	if x.Rank() != 4 || w.Rank() != 4 {
		panic(fmt.Sprintf("tensor: Conv2D needs NCHW/FCHW, got %v, %v", x.shape, w.shape))
	}
	if x.shape[1] != w.shape[1] {
		panic(fmt.Sprintf("tensor: Conv2D channel mismatch %v, %v", x.shape, w.shape))
	}
	n, f := x.shape[0], w.shape[0]
	g := newConvGeom(x.shape[1], x.shape[2], x.shape[3], w.shape[2], w.shape[3], stride, pad)
	if bias != nil && (bias.Rank() != 1 || bias.shape[0] != f) {
		panic(fmt.Sprintf("tensor: Conv2D bias %v, want [%d]", bias.shape, f))
	}
	sp := prof.Begin(prof.CatKernel, "conv2d.fwd")
	if sp.Active() {
		sp.SetFLOPs(2 * float64(n) * float64(f) * float64(g.ckk()) * float64(g.ohw()))
		sp.SetBytes(4 * (int64(x.Numel()) + int64(w.Numel()) + int64(n)*int64(f)*int64(g.ohw())))
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
	out := acquireDirty(n, f, g.oh, g.ow)
	if rowWorkers(n, 1) <= 1 {
		convFwdImages(out.data, x.data, w.data, &g, f, 0, n, ep, &sp)
	} else {
		// The closure escapes to the pool: it captures heap copies of the
		// epilogue, the geometry and the span, not ep, g and sp themselves.
		epc, gc, spc := ep.heapCopy(), g, sp
		parallelRows(n, 1, func(lo, hi int) {
			convFwdImages(out.data, x.data, w.data, &gc, f, lo, hi, epc, &spc)
		})
	}
	sp.End()
	return out
}

// convFwdImages writes the output blocks of images [blo, bhi) of y.
func convFwdImages(y, x, w []float32, g *convGeom, f, blo, bhi int, ep *epilogue, parent *prof.Span) {
	ckk, ohw, chw := g.ckk(), g.ohw(), g.chw()
	if g.pointwise() {
		for b := blo; b < bhi; b++ {
			gemmSerial(y[b*f*ohw:][:f*ohw], w, x[b*chw:][:chw], f, ckk, ohw, layPlain, false, ep)
		}
		return
	}
	panel := panelFits(f, ckk, ohw)
	xp := g.padScratch()
	cols := getPackBuf(ckk * ohw)
	for b := blo; b < bhi; b++ {
		yb := y[b*f*ohw:][:f*ohw]
		sp := lowerSpan(parent, "im2col", chw+ckk*ohw)
		src := g.padded(xp, x[b*chw:][:chw])
		if panel {
			g.lowerPanel(cols, src)
			sp.End()
			panelRows(yb, w, cols, f, ckk, ohw, ep)
			continue
		}
		g.lowerRows(cols, src)
		sp.End()
		gemmSerial(yb, w, cols, f, ckk, ohw, layPlain, false, ep)
	}
	putPackBuf(cols)
	putPackBuf(xp)
}

// Conv2DBackward computes the gradients of a Conv2D. Given upstream gradient
// gy [N, F, outH, outW], it returns pool-backed (gx, gw) matching x and w,
// both computed per image straight from NCHW-layout gy.
func Conv2DBackward(x, w, gy *Tensor, stride, pad int) (gx, gw *Tensor) {
	if x.Rank() != 4 || w.Rank() != 4 {
		panic(fmt.Sprintf("tensor: Conv2DBackward needs NCHW/FCHW, got %v, %v", x.shape, w.shape))
	}
	if x.shape[1] != w.shape[1] {
		panic(fmt.Sprintf("tensor: Conv2DBackward channel mismatch %v, %v", x.shape, w.shape))
	}
	n, f := x.shape[0], w.shape[0]
	g := newConvGeom(x.shape[1], x.shape[2], x.shape[3], w.shape[2], w.shape[3], stride, pad)
	if gy.Rank() != 4 || gy.shape[0] != n || gy.shape[1] != f || gy.shape[2] != g.oh || gy.shape[3] != g.ow {
		panic(fmt.Sprintf("tensor: Conv2DBackward gy %v, want [%d %d %d %d]", gy.shape, n, f, g.oh, g.ow))
	}
	sp := prof.Begin(prof.CatKernel, "conv2d.bwd")
	if sp.Active() {
		// Two GEMMs per image (weight gradient and lowered input gradient),
		// each 2·f·ckk·ohw multiply-adds.
		sp.SetFLOPs(4 * float64(n) * float64(f) * float64(g.ckk()) * float64(g.ohw()))
		sp.SetBytes(4 * (2*int64(x.Numel()) + int64(gy.Numel()) + int64(w.Numel())))
	}
	// gw is shaped [F, C, kh, kw] directly (no reshape view, so the buffer
	// keeps pool ownership).
	dw := Acquire(f, g.c, g.kh, g.kw)
	convBwdWeights(dw.data, x.data, gy.data, &g, n, f, &sp)
	dx := acquireDirty(n, g.c, g.h, g.w)
	if rowWorkers(n, 1) <= 1 {
		convBwdDataImages(dx.data, gy.data, w.data, &g, f, 0, n, &sp)
	} else {
		// As in Conv2DFused; dx rather than the named gx, which the
		// closure would move to the heap on the serial path too.
		gc, spc := g, sp
		parallelRows(n, 1, func(lo, hi int) {
			convBwdDataImages(dx.data, gy.data, w.data, &gc, f, lo, hi, &spc)
		})
	}
	sp.End()
	return dx, dw
}

// convBwdWeights accumulates gw += gy_b · cols_bᵀ over the images in
// order. The image loop stays serial, so every element's accumulation
// order is image-major whatever the worker count; workers split gw's row
// tiles inside an image's GEMM.
func convBwdWeights(gw, x, gy []float32, g *convGeom, n, f int, parent *prof.Span) {
	ckk, ohw, chw := g.ckk(), g.ohw(), g.chw()
	if g.pointwise() {
		for b := 0; b < n; b++ {
			gemmParallel(gw, gy[b*f*ohw:][:f*ohw], x[b*chw:][:chw], f, ohw, ckk, layTransB, true, nil)
		}
		return
	}
	panel := panelFits(f, ohw, ckk)
	minRows := gemmMinRows(ohw, ckk)
	xp := g.padScratch()
	cols := getPackBuf(ckk * ohw)
	for b := 0; b < n; b++ {
		gyb := gy[b*f*ohw:][:f*ohw]
		sp := lowerSpan(parent, "im2col", chw+ckk*ohw)
		src := g.padded(xp, x[b*chw:][:chw])
		if !panel {
			g.lowerRows(cols, src)
			sp.End()
			gemmParallel(gw, gyb, cols, f, ohw, ckk, layTransB, true, nil)
			continue
		}
		g.lowerPanelT(cols, src)
		sp.End()
		if rowWorkers(f, minRows) <= 1 {
			panelRowsT(gw, gyb, cols, f, ohw, ckk, 0, f)
			continue
		}
		parallelRowsAligned(f, microMW, minRows, func(lo, hi int) {
			panelRowsT(gw, gyb, cols, f, ohw, ckk, lo, hi)
		})
	}
	putPackBuf(cols)
	putPackBuf(xp)
}

// convBwdDataImages writes the input gradient of images [blo, bhi): per
// image the lowered gradient wᵀ · gy_b, scattered into gx_b while it is
// still in L2. A pointwise convolution's lowered gradient is gx_b itself.
func convBwdDataImages(gx, gy, w []float32, g *convGeom, f, blo, bhi int, parent *prof.Span) {
	ckk, ohw, chw := g.ckk(), g.ohw(), g.chw()
	if g.pointwise() {
		for b := blo; b < bhi; b++ {
			gemmSerial(gx[b*chw:][:chw], w, gy[b*f*ohw:][:f*ohw], ckk, f, ohw, layTransA, false, nil)
		}
		return
	}
	vec := currentGemmTier() == tierAVX2
	gcols := getPackBuf(ckk * ohw)
	for b := blo; b < bhi; b++ {
		gemmSerial(gcols, w, gy[b*f*ohw:][:f*ohw], ckk, f, ohw, layTransA, false, nil)
		sp := lowerSpan(parent, "col2im", ckk*ohw+chw)
		gxb := gx[b*chw:][:chw]
		clear(gxb)
		g.scatter(gxb, gcols, vec)
		sp.End()
	}
	putPackBuf(gcols)
}

// MaxPool2D computes max pooling over x [N, C, H, W] and returns the pooled
// tensor plus the flat argmax indices needed by the backward pass, written
// into idx when its capacity suffices (a layer passes back the slice it got
// last time, so a warmed forward allocates nothing). Planes are split
// across the worker pool.
func MaxPool2D(x *Tensor, k, stride int, idx []int) (*Tensor, []int) {
	n, c, h, w := x.shape[0], x.shape[1], x.shape[2], x.shape[3]
	oh, ow := ConvOut(h, k, stride, 0), ConvOut(w, k, stride, 0)
	out := acquireDirty(n, c, oh, ow)
	if cap(idx) < out.Numel() {
		idx = make([]int, out.Numel())
	}
	idx = idx[:out.Numel()]
	if rowWorkers(n*c, 1) <= 1 {
		maxPoolPlanes(out.data, idx, x.data, h, w, oh, ow, k, stride, 0, n*c)
		return out, idx
	}
	// The closure captures argmax, assigned once, rather than the
	// reassigned idx, which would move to the heap on every call.
	argmax := idx
	parallelRows(n*c, 1, func(plo, phi int) {
		maxPoolPlanes(out.data, argmax, x.data, h, w, oh, ow, k, stride, plo, phi)
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
