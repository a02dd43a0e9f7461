//go:build amd64

package tensor

// AVX2 bodies of the convolution's data movement (conv_avx2_amd64.s).
// conv.go calls them on the avx2 tier only, so they run only where CPUID
// reported AVX2. Each wrapper checks, in Go, that every element the
// assembly touches is inside its slice, since the assembly checks nothing.

//go:noescape
func lowerStripAVX2(dst, src *float32, offs *int, kc int)

//go:noescape
func panelTAVX2(dst, src *float32, offs *[8]int, rows, groups, srcStride, dstStride int)

//go:noescape
func addBlockAVX2(dst, src *float32, rows, cols, dstStride, srcStride int)

// lowerStripVec writes one 8-pixel strip of a lowering: dst[p*8+c] =
// src[offs[p]+c], where src starts at the strip's first pixel in the
// padded image, the 8 pixels are neighbours in one output row, and offs,
// ascending, are the strip's taps (so the last is the furthest read).
func lowerStripVec(dst, src []float32, offs []int) {
	kc := len(offs)
	if kc == 0 {
		return
	}
	_ = dst[8*kc-1]
	_ = src[offs[kc-1]+7]
	lowerStripAVX2(&dst[0], &src[0], &offs[0], kc)
}

// panelTVec is panelTGo: the assembly takes each row's whole 8-pixel
// groups, panelTGo the rest.
func panelTVec(dst, src []float32, offs *[8]int, rows, cols, srcStride, dstStride int) {
	groups := cols / 8
	if rows == 0 || groups == 0 {
		panelTGo(dst, src, offs, rows, cols, srcStride, dstStride)
		return
	}
	_ = dst[(rows-1)*dstStride+64*groups-1]
	_ = src[(rows-1)*srcStride+8*groups-1+offs[7]]
	panelTAVX2(&dst[0], &src[0], offs, rows, groups, srcStride, dstStride)
	if c8 := 8 * groups; c8 < cols {
		panelTGo(dst[8*c8:], src[c8:], offs, rows, cols-c8, srcStride, dstStride)
	}
}

// addBlockVec is addBlockGo; blocks narrower than one vector stay in Go.
func addBlockVec(dst, src []float32, rows, cols, dstStride, srcStride int) {
	if rows == 0 || cols < 8 {
		addBlockGo(dst, src, rows, cols, dstStride, srcStride)
		return
	}
	_ = dst[(rows-1)*dstStride+cols-1]
	_ = src[(rows-1)*srcStride+cols-1]
	addBlockAVX2(&dst[0], &src[0], rows, cols, dstStride, srcStride)
}
