package tensor

import (
	"encoding/binary"
	"fmt"
	"math"
	"testing"
)

// Batch normalization's training passes moved here from
// layers.BatchNorm2D. The contract is bit equality with the layer's loops
// as they stood, kept below verbatim as the reference, from the portable
// bodies and the AVX2 bodies alike, at any worker count.

// refBatchNormForward is BatchNorm2D.Forward's training branch as it
// stood before batchnorm.go.
func refBatchNormForward(out, xhat, x []float32, n, c, plane int, gamma, beta []float32, eps, momentum float32, runMean, runVar, invStd []float32) {
	m := n * plane
	for ch := 0; ch < c; ch++ {
		var sum, sq float64
		for bi := 0; bi < n; bi++ {
			src := x[(bi*c+ch)*plane : (bi*c+ch+1)*plane]
			for _, v := range src {
				sum += float64(v)
				sq += float64(v) * float64(v)
			}
		}
		mean := sum / float64(m)
		variance := sq/float64(m) - mean*mean
		if variance < 0 {
			variance = 0
		}
		inv := float32(1 / math.Sqrt(variance+float64(eps)))
		invStd[ch] = inv
		runMean[ch] = momentum*runMean[ch] + (1-momentum)*float32(mean)
		runVar[ch] = momentum*runVar[ch] + (1-momentum)*float32(variance)
		g, b := gamma[ch], beta[ch]
		for bi := 0; bi < n; bi++ {
			src := x[(bi*c+ch)*plane : (bi*c+ch+1)*plane]
			xh := xhat[(bi*c+ch)*plane : (bi*c+ch+1)*plane]
			dst := out[(bi*c+ch)*plane : (bi*c+ch+1)*plane]
			for i, v := range src {
				nrm := (v - float32(mean)) * inv
				xh[i] = nrm
				dst[i] = g*nrm + b
			}
		}
	}
}

// refBatchNormBackward is BatchNorm2D.Backward as it stood.
func refBatchNormBackward(gx, gy, xhat []float32, n, c, plane int, gamma, invStd, gGamma, gBeta []float32) {
	m := float32(n * plane)
	for ch := 0; ch < c; ch++ {
		var sumG, sumGX float64
		for bi := 0; bi < n; bi++ {
			g := gy[(bi*c+ch)*plane : (bi*c+ch+1)*plane]
			xh := xhat[(bi*c+ch)*plane : (bi*c+ch+1)*plane]
			for i, v := range g {
				sumG += float64(v)
				sumGX += float64(v) * float64(xh[i])
			}
		}
		gBeta[ch] += float32(sumG)
		gGamma[ch] += float32(sumGX)
		gamma := gamma[ch]
		inv := invStd[ch]
		for bi := 0; bi < n; bi++ {
			g := gy[(bi*c+ch)*plane : (bi*c+ch+1)*plane]
			xh := xhat[(bi*c+ch)*plane : (bi*c+ch+1)*plane]
			dst := gx[(bi*c+ch)*plane : (bi*c+ch+1)*plane]
			for i, v := range g {
				dst[i] = gamma * inv / m * (m*v - float32(sumG) - xh[i]*float32(sumGX))
			}
		}
	}
}

// bnShapes are the channel counts (one group, a group and a tail, two
// groups, three), planes (every pixel tail, and train_conv's 16x16) and
// batches the bodies are held to.
var (
	bnChannels = []int{1, 3, 4, 6, 8, 12}
	bnPlanes   = []int{1, 3, 4, 7, 8, 9, 256}
	bnImages   = []int{1, 2, 32}
)

// forEachBNShape runs fn on every shape, each at a start offset within a
// vector that moves from shape to shape, so no alignment is assumed.
func forEachBNShape(t *testing.T, fn func(t *testing.T, n, c, plane, off int)) {
	i := 0
	for _, n := range bnImages {
		for _, c := range bnChannels {
			for _, plane := range bnPlanes {
				off := i % 8
				i++
				t.Run(fmt.Sprintf("n=%d/c=%d/plane=%d/off=%d", n, c, plane, off), func(t *testing.T) {
					fn(t, n, c, plane, off)
				})
			}
		}
	}
}

// bnLoose is checkElemBits's loose for the batch-norm outputs. Where two
// NaNs meet, x86 returns the first source's payload, and the AVX2 bodies
// take as first source the operand the compiled Go bodies do. The race
// detector's instrumentation compiles the Go bodies with other operand
// orders, so under -race a NaN need only meet a NaN; every other bit is
// still held.
func bnLoose(int) bool { return raceBuild }

// checkFloat64Bits is checkElemBits for the float64 sums, loose as bnLoose.
func checkFloat64Bits(t *testing.T, label string, got, want []float64) {
	t.Helper()
	for i := range want {
		g, w := math.Float64bits(got[i]), math.Float64bits(want[i])
		if g == w || (bnLoose(i) && math.IsNaN(got[i]) && math.IsNaN(want[i])) {
			continue
		}
		t.Fatalf("%s: [%d] = %#016x, want %#016x", label, i, g, w)
	}
}

// bnConstants are per-channel constants for the elementwise bodies:
// ordinary values, then every special pattern in turn.
func bnConstants(rng *RNG, c, phase int) []float32 {
	return saltedInput(rng, c, 3, phase)
}

// TestBatchNormBodiesMatchGo holds each AVX2 body to its portable body on
// salted inputs (NaN payloads, ±Inf, −0, denormals), bit for bit.
func TestBatchNormBodiesMatchGo(t *testing.T) {
	forceGemmTier(t, "avx2")
	vec := elemKernelsFor(currentGemmTier())
	rng := NewRNG(48)
	forEachBNShape(t, func(t *testing.T, n, c, plane, off int) {
		size := n * c * plane
		a := saltedInput(rng, off+size, 7, off)[off:]
		b := saltedInput(rng, off+size, 5, off+1)[off:]
		pl := chanPlanes{imgs: n, stride: c * plane, plane: plane}

		got, want := make([]float64, 2*c), make([]float64, 2*c)
		vec.bnSums(got[:c], got[c:], a, a, pl)
		bnSumsGo(want[:c], want[c:], a, a, pl)
		checkFloat64Bits(t, "sums a·a", got, want)
		vec.bnSums(got[:c], got[c:], a, b, pl)
		bnSumsGo(want[:c], want[c:], a, b, pl)
		checkFloat64Bits(t, "sums a·b", got, want)

		mu, inv := bnConstants(rng, c, 0), bnConstants(rng, c, 1)
		g, sh := bnConstants(rng, c, 2), bnConstants(rng, c, 0)
		gotX, gotO := make([]float32, off+size)[off:], make([]float32, off+size)[off:]
		wantX, wantO := make([]float32, size), make([]float32, size)
		for ch := 0; ch < c; ch++ {
			o := ch * plane
			vec.bnNorm(gotX[o:], gotO[o:], a[o:], pl, mu[ch], inv[ch], g[ch], sh[ch])
			bnNormGo(wantX[o:], wantO[o:], a[o:], pl, mu[ch], inv[ch], g[ch], sh[ch])
		}
		checkElemBits(t, "normalize xh", gotX, wantX, bnLoose)
		checkElemBits(t, "normalize out", gotO, wantO, bnLoose)

		k, s, sx := bnConstants(rng, c, 1), bnConstants(rng, c, 2), bnConstants(rng, c, 0)
		m := float32(n * plane)
		for ch := 0; ch < c; ch++ {
			o := ch * plane
			vec.bnGrad(gotX[o:], a[o:], b[o:], pl, k[ch], m, s[ch], sx[ch])
			bnGradGo(wantX[o:], a[o:], b[o:], pl, k[ch], m, s[ch], sx[ch])
		}
		checkElemBits(t, "gradient", gotX, wantX, bnLoose)
	})
}

// TestBatchNormMatchesLayerLoops holds the entry points to the layer's
// old loops on every tier, serial and split three ways.
func TestBatchNormMatchesLayerLoops(t *testing.T) {
	defer SetParallelism(1)
	for _, tier := range []string{"ref", "avx2"} {
		t.Run(tier, func(t *testing.T) {
			forceGemmTier(t, tier)
			for _, workers := range []int{1, 3} {
				SetParallelism(workers)
				rng := NewRNG(49)
				forEachBNShape(t, func(t *testing.T, n, c, plane, off int) {
					checkBatchNormPasses(t, rng, n, c, plane, off)
				})
			}
		})
	}
}

// checkBatchNormPasses runs two training steps' forward and backward
// through the entry points and through the reference loops.
func checkBatchNormPasses(t *testing.T, rng *RNG, n, c, plane, off int) {
	t.Helper()
	size := n * c * plane
	shape := []int{n, c, plane, 1}
	view := func(xs []float32) *Tensor { return FromSlice(xs, shape...) }
	gamma, beta := saltedInput(rng, c, 5, 1), saltedInput(rng, c, 4, 2)
	st := NewBatchNormStats(c)
	ref := NewBatchNormStats(c)
	refInv := make([]float32, c)
	gG, gB := make([]float32, c), make([]float32, c)
	refGG, refGB := make([]float32, c), make([]float32, c)
	for step := 0; step < 2; step++ {
		// Plain normals the first step, salted the second.
		x := RandNormal(rng, 0, 1, size).data
		gy := RandNormal(rng, 0, 1, size).data
		if step == 1 {
			x, gy = saltedInput(rng, size, 11, step), saltedInput(rng, size, 13, step)
		}
		x = append(make([]float32, off), x...)[off:]
		out, xhat := make([]float32, off+size)[off:], make([]float32, off+size)[off:]
		BatchNormForward(view(out), view(xhat), view(x), gamma, beta, 1e-5, 0.9, &st)
		wantOut, wantXhat := make([]float32, size), make([]float32, size)
		refBatchNormForward(wantOut, wantXhat, x, n, c, plane, gamma, beta, 1e-5, 0.9, ref.RunMean, ref.RunVar, refInv)
		label := fmt.Sprintf("step %d", step)
		checkElemBits(t, label+" out", out, wantOut, bnLoose)
		checkElemBits(t, label+" xhat", xhat, wantXhat, bnLoose)
		checkElemBits(t, label+" invStd", st.InvStd, refInv, bnLoose)
		checkElemBits(t, label+" running mean", st.RunMean, ref.RunMean, bnLoose)
		checkElemBits(t, label+" running var", st.RunVar, ref.RunVar, bnLoose)

		gx := make([]float32, off+size)[off:]
		BatchNormBackward(view(gx), view(gy), view(xhat), gamma, gG, gB, &st)
		wantGx := make([]float32, size)
		refBatchNormBackward(wantGx, gy, wantXhat, n, c, plane, gamma, refInv, refGG, refGB)
		checkElemBits(t, label+" gx", gx, wantGx, bnLoose)
		checkElemBits(t, label+" gamma grad", gG, refGG, bnLoose)
		checkElemBits(t, label+" beta grad", gB, refGB, bnLoose)
	}
}

// TestBatchNormAllocatesNothing pins that a warmed forward and backward
// take nothing from the Go allocator, serial and split.
func TestBatchNormAllocatesNothing(t *testing.T) {
	defer SetParallelism(1)
	rng := NewRNG(50)
	x := RandNormal(rng, 0, 1, 32, 8, 16, 16)
	gy := RandNormal(rng, 0, 1, 32, 8, 16, 16)
	out, xhat, gx := New(x.shape...), New(x.shape...), New(x.shape...)
	gamma, beta, gG, gB := Ones(8).data, New(8).data, New(8).data, New(8).data
	st := NewBatchNormStats(8)
	step := func() {
		BatchNormForward(out, xhat, x, gamma, beta, 1e-5, 0.9, &st)
		BatchNormBackward(gx, gy, xhat, gamma, gG, gB, &st)
	}
	for _, tier := range []string{"ref", "avx2"} {
		t.Run(tier, func(t *testing.T) {
			forceGemmTier(t, tier)
			SetParallelism(1)
			step()
			allocs := math.Inf(1)
			for range 3 {
				allocs = min(allocs, testing.AllocsPerRun(20, step))
			}
			if allocs != 0 {
				t.Errorf("a warmed serial forward + backward allocates %v objects, want 0", allocs)
			}
		})
	}
}

// TestBatchNormBodiesCheckLengths: the assembly checks nothing, so each
// wrapper must refuse a slice one element short of what it would touch.
func TestBatchNormBodiesCheckLengths(t *testing.T) {
	forceGemmTier(t, "avx2")
	vec := elemKernelsFor(currentGemmTier())
	pl := chanPlanes{imgs: 2, stride: 8 * 5, plane: 5}
	full, short := make([]float32, 2*8*5), make([]float32, 2*8*5-1)
	sa, sab := make([]float64, 8), make([]float64, 8)
	for name, fn := range map[string]func(){
		"sums a":  func() { vec.bnSums(sa, sab, short, full, pl) },
		"sums b":  func() { vec.bnSums(sa, sab, full, short, pl) },
		"sums ab": func() { vec.bnSums(sa, sab[:7], full, full, pl) },
		"norm":    func() { vec.bnNorm(full[7*5+1:], full, full, pl, 0, 1, 1, 0) },
		"grad":    func() { vec.bnGrad(full, full[7*5+1:], full, pl, 1, 1, 0, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: a short slice did not panic", name)
				}
			}()
			fn()
		}()
	}
}

// FuzzBatchNormKernels drives arbitrary float32 bit patterns and shapes
// through the AVX2 bodies against the portable ones, bit for bit.
func FuzzBatchNormKernels(f *testing.F) {
	prev, err := SetGemmKernelTier("avx2")
	if err != nil {
		f.Skipf("tier avx2 unavailable: %v", err)
	}
	f.Cleanup(func() {
		if _, err := SetGemmKernelTier(prev); err != nil {
			f.Fatal(err)
		}
	})
	vec := elemKernelsFor(currentGemmTier())
	specials := make([]byte, 0, 4*len(elemSpecialBits))
	for _, b := range elemSpecialBits {
		specials = binary.LittleEndian.AppendUint32(specials, b)
	}
	f.Add(specials, uint8(8), uint8(7), uint8(2), uint8(0))
	f.Add(specials[8:], uint8(6), uint8(9), uint8(1), uint8(3))
	f.Add(make([]byte, 64), uint8(12), uint8(4), uint8(3), uint8(5))
	f.Fuzz(func(t *testing.T, data []byte, cb, pb, nb, ob uint8) {
		if len(data) < 4 {
			return
		}
		c, plane, n, off := 1+int(cb%12), 1+int(pb%40), 1+int(nb%4), int(ob%8)
		size := n * c * plane
		word := func(i int) float32 {
			j := 4 * (i % (len(data) / 4))
			return math.Float32frombits(binary.LittleEndian.Uint32(data[j:]))
		}
		view := func(from int) []float32 {
			xs := make([]float32, off+size)[off:]
			for i := range xs {
				xs[i] = word(from + i)
			}
			return xs
		}
		a, b := view(0), view(size+1)
		pl := chanPlanes{imgs: n, stride: c * plane, plane: plane}

		got, want := make([]float64, 2*c), make([]float64, 2*c)
		vec.bnSums(got[:c], got[c:], a, a, pl)
		bnSumsGo(want[:c], want[c:], a, a, pl)
		checkFloat64Bits(t, "sums a·a", got, want)
		vec.bnSums(got[:c], got[c:], a, b, pl)
		bnSumsGo(want[:c], want[c:], a, b, pl)
		checkFloat64Bits(t, "sums a·b", got, want)

		gotX, gotO, gotG := make([]float32, size), make([]float32, size), make([]float32, size)
		wantX, wantO, wantG := make([]float32, size), make([]float32, size), make([]float32, size)
		for ch := 0; ch < c; ch++ {
			o := ch * plane
			k0, k1, k2, k3 := word(2*size+4*ch), word(2*size+4*ch+1), word(2*size+4*ch+2), word(2*size+4*ch+3)
			vec.bnNorm(gotX[o:], gotO[o:], a[o:], pl, k0, k1, k2, k3)
			bnNormGo(wantX[o:], wantO[o:], a[o:], pl, k0, k1, k2, k3)
			vec.bnGrad(gotG[o:], a[o:], b[o:], pl, k3, k2, k1, k0)
			bnGradGo(wantG[o:], a[o:], b[o:], pl, k3, k2, k1, k0)
		}
		checkElemBits(t, "normalize xh", gotX, wantX, bnLoose)
		checkElemBits(t, "normalize out", gotO, wantO, bnLoose)
		checkElemBits(t, "gradient", gotG, wantG, bnLoose)
	})
}
