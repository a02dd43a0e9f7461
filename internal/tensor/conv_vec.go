package tensor

// Portable bodies of the convolution's data movement (conv.go): the
// references the AVX2 forms in conv_avx2_amd64.go match bit for bit, a
// copy or one add per element in the same order. (The strip copy's is a
// move8 loop, conv_vec_other.go.) They also run wherever the vector form
// does not: other tiers, stride > 1, and the pixels or columns past a
// whole vector.

// panelTGo writes 8 taps (offs) of rows x cols neighbouring pixels pixel
// by pixel: dst[r*dstStride + q*8 + i] = src[r*srcStride + q + offs[i]]
// for r < rows, q < cols, i < 8.
func panelTGo(dst, src []float32, offs *[8]int, rows, cols, srcStride, dstStride int) {
	for r := 0; r < rows; r++ {
		d, s := dst[r*dstStride:][:8*cols], src[r*srcStride:]
		for q := 0; q < cols; q++ {
			o := (*[8]float32)(d[q*8:])
			for i, off := range offs {
				o[i] = s[q+off]
			}
		}
	}
}

// addBlockGo adds a rows x cols block of src (row stride srcStride) into
// dst (row stride dstStride), row by row.
func addBlockGo(dst, src []float32, rows, cols, dstStride, srcStride int) {
	for r := 0; r < rows; r++ {
		accumRange(dst[r*dstStride:][:cols], src[r*srcStride:][:cols])
	}
}
