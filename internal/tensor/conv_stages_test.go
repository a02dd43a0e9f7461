package tensor

import "testing"

// BenchmarkConvStages times, one stage at a time, what a convolution does
// per image at train_conv's 8->8 3x3 shape (16x16, pad 1) over a batch of
// 32, serially on the current tier. Each op runs its stage over all 32
// images; us/img is the metric to read. As in the convolution, the batch
// (x, y, gy, gx) is batch-wide and each image's lowerings reuse one
// image-sized scratch. The lowering stages include the padded copy.
func BenchmarkConvStages(b *testing.B) {
	const n, c, hw, f, k = 32, 8, 16, 8, 3
	defer SetParallelism(Parallelism())
	SetParallelism(1)
	rng := NewRNG(43)
	x := RandNormal(rng, 0, 1, n, c, hw, hw).data
	w := RandNormal(rng, 0, 0.5, f, c, k, k).data
	g := newConvGeom(c, hw, hw, k, k, 1, 1)
	ckk, ohw, chw := g.ckk(), g.ohw(), g.chw()
	gy := RandNormal(rng, 0, 1, n, f, g.oh, g.ow).data
	y := make([]float32, n*f*ohw)
	gx := make([]float32, n*chw)
	gw := make([]float32, f*ckk)
	xp := make([]float32, c*g.hp*g.wp)
	cols := make([]float32, ckk*ohw)
	wcols := make([]float32, ckk*ohw)
	gcols := make([]float32, ckk*ohw)
	vec := currentGemmTier() == tierAVX2
	img := func(s []float32, b, size int) []float32 { return s[b*size:][:size] }
	stages := []struct {
		name string
		run  func(b int)
	}{
		{"lower", func(b int) { g.lowerPanel(cols, g.padded(xp, img(x, b, chw))) }},
		{"fwd-gemm", func(b int) { panelRows(img(y, b, f*ohw), w, cols, f, ckk, ohw, nil) }},
		{"wpanel", func(b int) { g.lowerPanelT(wcols, g.padded(xp, img(x, b, chw))) }},
		{"wgrad-gemm", func(b int) { panelRowsT(rowArgs{dst: gw, a: img(gy, b, f*ohw), bp: wcols, n: f, k: ohw, m: ckk}, 0, f) }},
		{"dgrad-gemm", func(b int) { gemmSerial(gcols, w, img(gy, b, f*ohw), ckk, f, ohw, layTransA, false, nil) }},
		{"scatter", func(b int) {
			gxb := img(gx, b, chw)
			clear(gxb)
			g.scatter(gxb, gcols, vec)
		}},
	}
	for _, st := range stages {
		for i := 0; i < n; i++ {
			st.run(i) // every stage's inputs are the earlier stages' outputs
		}
	}
	for _, st := range stages {
		b.Run(st.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for im := 0; im < n; im++ {
					st.run(im)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/1e3/float64(b.N*n), "us/img")
		})
	}
}
