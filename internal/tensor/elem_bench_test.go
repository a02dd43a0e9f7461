package tensor

import (
	"fmt"
	"testing"
)

// Micro-benchmarks for the pointwise kernels of elem.go at the two shapes
// the gated workloads run them at: 32x512 (one serve_sat batch through a
// hidden layer) and 256x1024 (one train_gemm layer). They use only
// applyEpilogueRows and ActBackward, so the same file measures the commit
// before the vector kernels; EXPERIMENTS.md has both sides.

// benchRingLen distinct inputs are cycled so that no iteration sees the
// signs of the one before it: a branchy ReLU cannot have its branches
// learned, and a branch-free one gains nothing from the ring.
const benchRingLen = 16

var benchElemShapes = []struct{ n, m int }{{32, 512}, {256, 1024}}

func benchNormalRing(seed uint64, numel int) [][]float32 {
	rng := NewRNG(seed)
	ring := make([][]float32, benchRingLen)
	for i := range ring {
		ring[i] = RandNormal(rng, 0, 1, numel).data
	}
	return ring
}

// reportElemRates adds ns per element and GB/s (bytesPerElem counts every
// read and write of the timed body) to a benchmark's output.
func reportElemRates(b *testing.B, numel, bytesPerElem int) {
	ns := float64(b.Elapsed().Nanoseconds()) / float64(b.N)
	b.ReportMetric(ns/float64(numel), "ns/elem")
	b.ReportMetric(float64(numel*bytesPerElem)/ns, "GB/s")
}

// BenchmarkEpilogueReLU times the fused bias + ReLU epilogue on a GEMM
// output. Every iteration copies fresh normal data into the tile first;
// the copy and bias rows are what to subtract to read the ReLU alone.
func BenchmarkEpilogueReLU(b *testing.B) {
	for _, sh := range benchElemShapes {
		n, m := sh.n, sh.m
		ring := benchNormalRing(uint64(n*m), n*m)
		bias := RandNormal(NewRNG(7), 0, 1, m).data
		dst := make([]float32, n*m)
		rows := []struct {
			name string
			ep   *epilogue
		}{
			{"copy", nil},
			{"bias", &epilogue{colBias: bias}},
			{"bias+relu", &epilogue{colBias: bias, act: ActReLU}},
		}
		for _, row := range rows {
			b.Run(fmt.Sprintf("%dx%d/%s", n, m, row.name), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					copy(dst, ring[i%benchRingLen])
					applyEpilogueRows(dst, m, 0, n, row.ep)
				}
				reportElemRates(b, n*m, 8)
			})
		}
	}
}

// BenchmarkActBackwardReLU times gz = gy * (y > 0) on ReLU outputs of
// fresh normal data (half the elements zero, in no learnable order).
func BenchmarkActBackwardReLU(b *testing.B) {
	for _, sh := range benchElemShapes {
		n, m := sh.n, sh.m
		ys := make([]*Tensor, benchRingLen)
		for i, y := range benchNormalRing(uint64(n*m), n*m) {
			applyEpilogueRows(y, m, 0, n, &epilogue{act: ActReLU})
			ys[i] = FromSlice(y, n, m)
		}
		gy := RandNormal(NewRNG(11), 0, 1, n, m)
		b.Run(fmt.Sprintf("%dx%d", n, m), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				ActBackward(ActReLU, gy, ys[i%benchRingLen]).Release()
			}
			reportElemRates(b, n*m, 12)
		})
	}
}
