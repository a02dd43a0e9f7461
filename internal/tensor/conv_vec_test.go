package tensor

import (
	"math"
	"testing"
)

// randomBits fills a slice with arbitrary float32 bit patterns, NaN
// payloads, infinities, zeros of both signs and subnormals included.
func randomBits(rng *RNG, n int) []float32 {
	s := make([]float32, n)
	for i := range s {
		s[i] = math.Float32frombits(uint32(rng.Uint64()))
	}
	return s
}

// TestConvVecBodiesMatchGo holds the convolution's data-movement bodies
// on this host (the AVX2 ones on amd64) to the portable ones bit for bit,
// on raw bit patterns and over widths on both sides of a whole vector.
func TestConvVecBodiesMatchGo(t *testing.T) {
	rng := NewRNG(11)
	src := randomBits(rng, 4096)
	for kc := 1; kc <= 13; kc++ {
		offs := make([]int, kc)
		for p := range offs {
			offs[p] = p*37 + p%3
		}
		got, want := make([]float32, 8*kc), make([]float32, 8*kc)
		lowerStripVec(got, src[5:], offs)
		for p, off := range offs {
			copy(want[p*8:p*8+8], src[5+off:])
		}
		if i, ok := bitsEqual(got, want); !ok {
			t.Fatalf("lowerStripVec kc=%d: [%d] = %#x, want %#x", kc, i, math.Float32bits(got[i]), math.Float32bits(want[i]))
		}
	}
	offs := [8]int{0, 1, 2, 30, 31, 32, 60, 61}
	for _, sh := range []struct{ rows, cols int }{{1, 8}, {3, 16}, {2, 13}, {4, 24}, {2, 7}, {5, 1}} {
		srcStride, dstStride := sh.cols+5, 8*sh.cols+8
		n := (sh.rows-1)*dstStride + 8*sh.cols
		got, want := randomBits(rng, n), make([]float32, n)
		copy(want, got)
		panelTVec(got, src, &offs, sh.rows, sh.cols, srcStride, dstStride)
		panelTGo(want, src, &offs, sh.rows, sh.cols, srcStride, dstStride)
		if i, ok := bitsEqual(got, want); !ok {
			t.Fatalf("panelTVec %dx%d: [%d] = %#x, want %#x", sh.rows, sh.cols, i, math.Float32bits(got[i]), math.Float32bits(want[i]))
		}
	}
	for cols := 1; cols <= 41; cols++ {
		rows, dstStride, srcStride := 3, cols+3, cols+1
		dst := randomBits(rng, (rows-1)*dstStride+cols)
		add := randomBits(rng, (rows-1)*srcStride+cols)
		got, want := append([]float32(nil), dst...), append([]float32(nil), dst...)
		addBlockVec(got, add, rows, cols, dstStride, srcStride)
		addBlockGo(want, add, rows, cols, dstStride, srcStride)
		if i, ok := bitsEqual(got, want); !ok {
			t.Fatalf("addBlockVec cols=%d: [%d] = %#x, want %#x", cols, i, math.Float32bits(got[i]), math.Float32bits(want[i]))
		}
	}
}

// TestConvVecBodiesCheckLengths: each body refuses a slice one element
// short of what it would touch, rather than reading or writing past it.
func TestConvVecBodiesCheckLengths(t *testing.T) {
	offs := [8]int{0, 1, 2, 18, 19, 20, 36, 37}
	for _, c := range []struct {
		name string
		run  func()
	}{
		{"lowerStripVec dst", func() { lowerStripVec(make([]float32, 8*8-1), make([]float32, 64), offs[:]) }},
		{"lowerStripVec src", func() { lowerStripVec(make([]float32, 8*8), make([]float32, 37+7), offs[:]) }},
		{"panelTVec dst", func() { panelTVec(make([]float32, 2*128-1), make([]float32, 200), &offs, 2, 16, 18, 128) }},
		{"panelTVec src", func() { panelTVec(make([]float32, 2*128), make([]float32, 18+15+37), &offs, 2, 16, 18, 128) }},
		{"addBlockVec dst", func() { addBlockVec(make([]float32, 2*20+16-1), make([]float32, 100), 3, 16, 20, 16) }},
		{"addBlockVec src", func() { addBlockVec(make([]float32, 100), make([]float32, 2*16+16-1), 3, 16, 20, 16) }},
	} {
		t.Run(c.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatal("no panic on a short slice")
				}
			}()
			c.run()
		})
	}
}
