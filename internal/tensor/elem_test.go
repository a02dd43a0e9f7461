package tensor

import (
	"encoding/binary"
	"fmt"
	"math"
	"testing"
)

// The pointwise kernels of elem.go replaced four branchy scalar loops. The
// contract is bit equality with those loops on every input, NaN payloads
// and signed zeros included, from the portable bodies and the AVX2 bodies
// alike. The old loops are kept here verbatim as the reference.

// refEpilogueRows is applyEpilogueRows as it stood before elem.go.
func refEpilogueRows(dst []float32, m, lo, hi int, ep *epilogue) {
	if ep == nil {
		return
	}
	for i := lo; i < hi; i++ {
		row := dst[i*m : (i+1)*m]
		if ep.colBias != nil {
			cb := ep.colBias[:len(row)]
			for j := range row {
				row[j] += cb[j]
			}
		}
		if ep.rowBias != nil {
			rb := ep.rowBias[i]
			for j := range row {
				row[j] += rb
			}
		}
		switch ep.act {
		case ActReLU:
			for j, v := range row {
				if !(v > 0) {
					row[j] = 0
				}
			}
		case ActSigmoid:
			for j, v := range row {
				row[j] = Sigmoid32(v)
			}
		case ActTanh:
			for j, v := range row {
				row[j] = Tanh32(v)
			}
		}
	}
}

// refReLU is the loop layers.ReLU.Forward ran.
func refReLU(dst, src []float32) {
	for i, v := range src {
		if v > 0 {
			dst[i] = v
		} else {
			dst[i] = 0
		}
	}
}

// refReLUBackward is ActBackward's ReLU case as it stood, which is also
// what layers.ReLU.Backward computed through Mul(gy, mask).
func refReLUBackward(dst, gy, y []float32) {
	for i, yy := range y {
		var mask float32
		if yy > 0 {
			mask = 1
		}
		dst[i] = gy[i] * mask
	}
}

// elemSpecialBits are the patterns every input is salted with: both
// zeros, both infinities, the smallest denormals, the extremes of the
// normal range, and quiet and signalling NaNs of both signs with payloads.
var elemSpecialBits = []uint32{
	0x00000000, 0x80000000, // ±0
	0x7f800000, 0xff800000, // ±Inf
	0x00000001, 0x80000001, // ±denormal min
	0x007fffff, 0x00800000, // largest denormal, smallest normal
	0x7f7fffff, 0xff7fffff, // ±max
	0x3f800000, 0xbf800000, // ±1
	0x7fc00000, 0xffc00000, // quiet NaNs, no payload
	0x7fc12345, 0xffd54321, // quiet NaNs with payloads
	0x7f800001, 0xff800001, // signalling NaNs, smallest payload
	0x7fa0beef, 0xffbabcde, // signalling NaNs with payloads
}

func isNaN32(v float32) bool { return v != v }

// saltedInput returns n standard normals with every stride-th element,
// from phase on, replaced by the special patterns in turn.
func saltedInput(rng *RNG, n, stride, phase int) []float32 {
	xs := make([]float32, n)
	for i := range xs {
		xs[i] = float32(rng.Norm())
	}
	for i, s := phase%stride, 0; i < n; i, s = i+stride, s+1 {
		xs[i] = math.Float32frombits(elemSpecialBits[s%len(elemSpecialBits)])
	}
	return xs
}

// specialPairs returns two slices that between them hold every ordered
// pair of special patterns.
func specialPairs() (a, b []float32) {
	s := len(elemSpecialBits)
	a, b = make([]float32, s*s), make([]float32, s*s)
	for i := range a {
		a[i] = math.Float32frombits(elemSpecialBits[i%s])
		b[i] = math.Float32frombits(elemSpecialBits[i/s])
	}
	return a, b
}

// checkElemBits requires got[i] and want[i] to agree bit for bit, except
// where loose(i): there an add met two NaNs, x86 returns its first
// source's payload, and the compiler is free to commute the reference
// loop's operands, so only NaN-ness is required.
func checkElemBits(t *testing.T, label string, got, want []float32, loose func(i int) bool) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: len %d, want %d", label, len(got), len(want))
	}
	for i := range want {
		g, w := math.Float32bits(got[i]), math.Float32bits(want[i])
		if g == w || (loose != nil && loose(i) && isNaN32(got[i]) && isNaN32(want[i])) {
			continue
		}
		t.Fatalf("%s: [%d] = %#08x, want %#08x", label, i, g, w)
	}
}

// forEachElemTier runs fn under the pure-Go tier and under avx2 (skipped
// where the assembly is not installed), handing it the kernel set that
// tier dispatches to.
func forEachElemTier(t *testing.T, fn func(t *testing.T, k *elemKernels)) {
	for _, tier := range []string{"ref", "avx2"} {
		t.Run(tier, func(t *testing.T) {
			forceGemmTier(t, tier)
			fn(t, elemKernelsFor(currentGemmTier()))
		})
	}
}

// elemTestLengths covers empty, every tail length around one, two and
// four vectors, and a few long ragged ones.
func elemTestLengths() []int {
	var ns []int
	for n := 0; n <= 33; n++ {
		ns = append(ns, n)
	}
	return append(ns, 255, 512, 1031)
}

// TestElemKernelsMatchScalarLoops holds each kernel to the loop it
// replaced over every length, at every start offset within a vector (so
// no alignment is assumed), on salted inputs.
func TestElemKernelsMatchScalarLoops(t *testing.T) {
	forEachElemTier(t, func(t *testing.T, k *elemKernels) {
		rng := NewRNG(19)
		for _, n := range elemTestLengths() {
			for off := 0; off < 8; off++ {
				label := fmt.Sprintf("n=%d off=%d", n, off)
				// Offset views into larger buffers; distinct strides and
				// phases walk the special values past each other.
				x := saltedInput(rng, off+n, 2, off)[off:]
				bias := saltedInput(rng, off+n, 3, n)[off:]
				gy := saltedInput(rng, off+n, 5, n+off)[off:]
				bothNaN := func(i int) bool { return isNaN32(x[i]) && isNaN32(bias[i]) }

				got, want := make([]float32, off+n)[off:], make([]float32, n)
				k.relu(got, x)
				refReLU(want, x)
				checkElemBits(t, label+" relu", got, want, nil)

				// In place: dst is src.
				copy(got, x)
				k.relu(got, got)
				checkElemBits(t, label+" relu in place", got, want, nil)

				copy(got, x)
				copy(want, x)
				k.addVec(got, bias)
				refEpilogueRows(want, n, 0, 1, &epilogue{colBias: bias})
				checkElemBits(t, label+" addVec", got, want, bothNaN)

				// Bias then ReLU sends every NaN to +0: nothing is loose.
				copy(got, x)
				copy(want, x)
				k.addVec(got, bias)
				k.relu(got, got)
				refEpilogueRows(want, n, 0, 1, &epilogue{colBias: bias, act: ActReLU})
				checkElemBits(t, label+" addVec+relu", got, want, nil)

				for _, cb := range elemSpecialBits {
					c := math.Float32frombits(cb)
					copy(got, x)
					copy(want, x)
					k.addConst(got, c)
					refEpilogueRows(want, n, 0, 1, &epilogue{rowBias: []float32{c}})
					checkElemBits(t, fmt.Sprintf("%s addConst %#08x", label, cb), got, want,
						func(i int) bool { return isNaN32(x[i]) && isNaN32(c) })
				}

				// The mask is never NaN, so gy's payload must always survive.
				y := make([]float32, n)
				refReLU(y, x)
				k.reluBwd(got, gy, y)
				refReLUBackward(want, gy, y)
				checkElemBits(t, label+" reluBwd", got, want, nil)
				// The kernel reads y > 0 itself: hand it the unclamped x too.
				k.reluBwd(got, gy, x)
				refReLUBackward(want, gy, x)
				checkElemBits(t, label+" reluBwd on raw x", got, want, nil)
			}
		}
	})
}

// TestElemKernelsSpecialPairs runs every ordered pair of special values
// through the two-operand kernels.
func TestElemKernelsSpecialPairs(t *testing.T) {
	forEachElemTier(t, func(t *testing.T, k *elemKernels) {
		a, b := specialPairs()
		n := len(a)
		bothNaN := func(i int) bool { return isNaN32(a[i]) && isNaN32(b[i]) }
		got, want := make([]float32, n), make([]float32, n)

		copy(got, a)
		copy(want, a)
		k.addVec(got, b)
		refEpilogueRows(want, n, 0, 1, &epilogue{colBias: b})
		checkElemBits(t, "addVec", got, want, bothNaN)

		k.relu(got, got)
		refEpilogueRows(want, n, 0, 1, &epilogue{act: ActReLU})
		checkElemBits(t, "addVec+relu", got, want, nil)

		// a as the gradient, b as the activation output.
		k.reluBwd(got, a, b)
		refReLUBackward(want, a, b)
		checkElemBits(t, "reluBwd", got, want, nil)
	})
}

// TestApplyEpilogueRowsMatchesScalarLoops drives the one epilogue function
// every GEMM and conv driver reaches, for every bias kind and activation,
// at row widths around a vector and well past one.
func TestApplyEpilogueRowsMatchesScalarLoops(t *testing.T) {
	const n = 5
	forEachElemTier(t, func(t *testing.T, _ *elemKernels) {
		rng := NewRNG(23)
		for _, m := range []int{1, 7, 8, 9, 512, 1031} {
			x := saltedInput(rng, n*m, 3, 0)
			colBias := saltedInput(rng, m, 4, 1)
			rowBias := saltedInput(rng, n, 2, 1)
			for biasKind := 0; biasKind < 4; biasKind++ {
				for _, act := range []ActKind{ActNone, ActReLU, ActSigmoid, ActTanh} {
					ep := &epilogue{act: act}
					if biasKind&1 != 0 {
						ep.colBias = colBias
					}
					if biasKind&2 != 0 {
						ep.rowBias = rowBias
					}
					// An element is loose once either add met two NaNs.
					loose := func(idx int) bool {
						i, j := idx/m, idx%m
						v := x[idx]
						if ep.colBias != nil {
							if isNaN32(v) && isNaN32(colBias[j]) {
								return true
							}
							v += colBias[j]
						}
						return ep.rowBias != nil && isNaN32(v) && isNaN32(rowBias[i])
					}
					got, want := append([]float32(nil), x...), append([]float32(nil), x...)
					// Rows [1, n-1) only: the rest must stay untouched.
					applyEpilogueRows(got, m, 1, n-1, ep)
					refEpilogueRows(want, m, 1, n-1, ep)
					checkElemBits(t, fmt.Sprintf("m=%d bias=%d act=%v", m, biasKind, act), got, want, loose)
				}
			}
		}
	})
}

// TestElemAsmMatchesGo compares the two kernel sets directly on a million
// uniformly random bit patterns (one in 128 a NaN).
func TestElemAsmMatchesGo(t *testing.T) {
	if !haveAVX2Kernels {
		t.Skip("AVX2 pointwise kernels not installed")
	}
	const n = 1<<20 + 5
	rng := NewRNG(29)
	randomBits := func() []float32 {
		xs := make([]float32, n)
		for i := range xs {
			xs[i] = math.Float32frombits(uint32(rng.Uint64()))
		}
		return xs
	}
	a, b := randomBits(), randomBits()
	bothNaN := func(i int) bool { return isNaN32(a[i]) && isNaN32(b[i]) }
	got, want := make([]float32, n), make([]float32, n)

	elemVec.relu(got, a)
	elemGo.relu(want, a)
	checkElemBits(t, "relu", got, want, nil)

	copy(got, a)
	copy(want, a)
	elemVec.addVec(got, b)
	elemGo.addVec(want, b)
	checkElemBits(t, "addVec", got, want, bothNaN)

	copy(got, a)
	copy(want, a)
	elemVec.addConst(got, b[0])
	elemGo.addConst(want, b[0])
	checkElemBits(t, "addConst", got, want, func(i int) bool { return isNaN32(a[i]) && isNaN32(b[0]) })

	elemVec.reluBwd(got, a, b)
	elemGo.reluBwd(want, a, b)
	checkElemBits(t, "reluBwd", got, want, nil)
}

// TestActForwardParallelMatchesSerial pins split invariance of the two
// tensor-level entry points: worker chunks end wherever the split puts
// them, not on vector boundaries, and the bits must not notice.
func TestActForwardParallelMatchesSerial(t *testing.T) {
	defer SetParallelism(1)
	forEachElemTier(t, func(t *testing.T, _ *elemKernels) {
		rng := NewRNG(31)
		const n = 200003 // more than 7 workers' worth of minElemsPerWorker, ragged
		x := FromSlice(saltedInput(rng, n, 7, 0), n)
		gy := FromSlice(saltedInput(rng, n, 11, 3), n)
		for _, act := range []ActKind{ActNone, ActReLU, ActSigmoid, ActTanh} {
			SetParallelism(1)
			y := ActForward(act, x)
			gx := ActBackward(act, gy, y)
			if act == ActReLU {
				want := make([]float32, n)
				refReLU(want, x.data)
				checkElemBits(t, "serial relu forward", y.data, want, nil)
				refReLUBackward(want, gy.data, y.data)
				checkElemBits(t, "serial relu backward", gx.data, want, nil)
			}
			for _, workers := range []int{2, 3, 7} {
				SetParallelism(workers)
				py := ActForward(act, x)
				pgx := ActBackward(act, gy, y)
				checkElemBits(t, fmt.Sprintf("%v forward, %d workers", act, workers), py.data, y.data, nil)
				checkElemBits(t, fmt.Sprintf("%v backward, %d workers", act, workers), pgx.data, gx.data, nil)
				py.Release()
				pgx.Release()
			}
			y.Release()
			gx.Release()
		}
	})
}

// FuzzReLUKernels reinterprets the input as float32 bit patterns, so every
// NaN payload is reachable, and runs ReLU forward, bias + ReLU and ReLU
// backward through the dispatching entry points under the avx2 tier
// against the reference loops, bit for bit. data is cut in three (x, bias,
// upstream gradient); off shifts the views off vector alignment.
func FuzzReLUKernels(f *testing.F) {
	prev, err := SetGemmKernelTier("avx2")
	if err != nil {
		f.Skipf("tier avx2 unavailable: %v", err)
	}
	f.Cleanup(func() {
		if _, err := SetGemmKernelTier(prev); err != nil {
			f.Fatal(err)
		}
	})
	specials := make([]byte, 0, 4*len(elemSpecialBits))
	for _, b := range elemSpecialBits {
		specials = binary.LittleEndian.AppendUint32(specials, b)
	}
	f.Add([]byte{}, uint8(0))
	f.Add(specials, uint8(0))
	f.Add(append(append(append([]byte(nil), specials...), specials[4:]...), specials[8:]...), uint8(3))
	f.Add(make([]byte, 12*33), uint8(7))
	f.Fuzz(func(t *testing.T, data []byte, off uint8) {
		n := len(data) / 12
		if n == 0 {
			return // a Tensor cannot be empty; the unit tests cover length 0
		}
		o := int(off % 8)
		view := func(part int) []float32 {
			xs := make([]float32, o+n)[o:]
			for i := range xs {
				xs[i] = math.Float32frombits(binary.LittleEndian.Uint32(data[4*(part*n+i):]))
			}
			return xs
		}
		x, bias, gy := view(0), view(1), view(2)
		want := make([]float32, n)

		y := ActForward(ActReLU, FromSlice(x, n))
		refReLU(want, x)
		checkElemBits(t, "forward", y.data, want, nil)

		gx := ActBackward(ActReLU, FromSlice(gy, n), y)
		refReLUBackward(want, gy, y.data)
		checkElemBits(t, "backward", gx.data, want, nil)
		y.Release()
		gx.Release()

		ep := &epilogue{colBias: bias, act: ActReLU}
		copy(want, x)
		applyEpilogueRows(x, n, 0, 1, ep)
		refEpilogueRows(want, n, 0, 1, ep)
		checkElemBits(t, "bias+forward", x, want, nil)
	})
}
