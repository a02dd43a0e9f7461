//go:build !amd64

package tensor

// The portable forms of conv_avx2_amd64.go's bodies. conv.go calls them
// on the avx2 tier only, which other GOARCHes never select; they keep the
// package building there.

func lowerStripVec(dst, src []float32, offs []int) {
	for p, off := range offs {
		move8((*[8]float32)(dst[p*8:]), (*[8]float32)(src[off:]))
	}
}

func panelTVec(dst, src []float32, offs *[8]int, rows, cols, srcStride, dstStride int) {
	panelTGo(dst, src, offs, rows, cols, srcStride, dstStride)
}

func addBlockVec(dst, src []float32, rows, cols, dstStride, srcStride int) {
	addBlockGo(dst, src, rows, cols, dstStride, srcStride)
}
