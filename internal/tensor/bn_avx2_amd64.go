//go:build amd64

package tensor

// AVX2 bindings for batch normalization's bodies (bn_avx2_amd64.s),
// installed in elemVec by the init in gemm_kernels_avx2_amd64.go. Each
// wrapper checks, in Go, that every element the assembly touches is
// inside its slice, since the assembly checks nothing. The sums take
// whole groups of four channels, eight at a time while eight remain;
// bnSumsGo takes the C mod 4 channels left over.

//go:noescape
func bnSumsA8AVX2(sa, sab *float64, a *float32, imgs, stride, plane int)

//go:noescape
func bnSumsA4AVX2(sa, sab *float64, a *float32, imgs, stride, plane int)

//go:noescape
func bnSumsAB8AVX2(sa, sab *float64, a, b *float32, imgs, stride, plane int)

//go:noescape
func bnSumsAB4AVX2(sa, sab *float64, a, b *float32, imgs, stride, plane int)

//go:noescape
func bnNormAVX2(xh, out, x *float32, imgs, stride, plane int, mu, inv, gamma, beta float32)

//go:noescape
func bnGradAVX2(gx, gy, xh *float32, imgs, stride, plane int, k, m, s, sx float32)

// bnSpan is the index one past the last element of a channel group's
// planes: the first `channels` planes of each of pl.imgs images.
func bnSpan(pl chanPlanes, channels int) int {
	return (pl.imgs-1)*pl.stride + channels*pl.plane
}

// bnSumsAsm is bnSumsGo. b = a (the same first element) takes the forms
// that transpose a once.
func bnSumsAsm(sa, sab []float64, a, b []float32, pl chanPlanes) {
	g := len(sa) &^ (bnGroup - 1)
	if g > 0 && pl.imgs > 0 && pl.plane > 0 {
		n := bnSpan(pl, g)
		_, _, _ = a[n-1], b[n-1], sab[len(sa)-1]
		self := &a[0] == &b[0]
		for j := 0; j < g; {
			o := j * pl.plane
			switch {
			case j+8 <= g && self:
				bnSumsA8AVX2(&sa[j], &sab[j], &a[o], pl.imgs, pl.stride, pl.plane)
				j += 8
			case j+8 <= g:
				bnSumsAB8AVX2(&sa[j], &sab[j], &a[o], &b[o], pl.imgs, pl.stride, pl.plane)
				j += 8
			case self:
				bnSumsA4AVX2(&sa[j], &sab[j], &a[o], pl.imgs, pl.stride, pl.plane)
				j += 4
			default:
				bnSumsAB4AVX2(&sa[j], &sab[j], &a[o], &b[o], pl.imgs, pl.stride, pl.plane)
				j += 4
			}
		}
	} else {
		g = 0
	}
	o := g * pl.plane
	bnSumsGo(sa[g:], sab[g:], a[o:], b[o:], pl)
}

// bnNormAsm is bnNormGo.
func bnNormAsm(xh, out, x []float32, pl chanPlanes, mu, inv, g, b float32) {
	if pl.imgs == 0 || pl.plane == 0 {
		return
	}
	n := bnSpan(pl, 1)
	_, _, _ = xh[n-1], out[n-1], x[n-1]
	bnNormAVX2(&xh[0], &out[0], &x[0], pl.imgs, pl.stride, pl.plane, mu, inv, g, b)
}

// bnGradAsm is bnGradGo.
func bnGradAsm(gx, gy, xh []float32, pl chanPlanes, k, m, s, sx float32) {
	if pl.imgs == 0 || pl.plane == 0 {
		return
	}
	n := bnSpan(pl, 1)
	_, _, _ = gx[n-1], gy[n-1], xh[n-1]
	bnGradAVX2(&gx[0], &gy[0], &xh[0], pl.imgs, pl.stride, pl.plane, k, m, s, sx)
}
