package tensor

import (
	"strings"
	"testing"
)

// convPinCase is one convolution shape of TestConvMatchesParentCommit.
type convPinCase struct {
	name                          string
	n, c, h, w, f, k, stride, pad int
	fused                         bool // bias + ReLU epilogue on the forward
}

// convPinCases covers every path through the convolution: the twin's
// layers, a ragged oh·ow, stride 2, a padded 1×1, the pointwise fast
// path, oh·ow above the k-block depth, a fused epilogue, a lowering deeper
// than one k-block, an F that leaves an 8-row tail, a lowering shorter than
// one 8-tap strip, a 5×5 kernel whose strips straddle output rows and
// whose taps leave a ragged 4, and three strips per output row.
var convPinCases = []convPinCase{
	{name: "train_conv 3->8", n: 4, c: 3, h: 16, w: 16, f: 8, k: 3, stride: 1, pad: 1},
	{name: "train_conv 8->8", n: 4, c: 8, h: 16, w: 16, f: 8, k: 3, stride: 1, pad: 1},
	{name: "ConvFwdBwd 14x14", n: 8, c: 8, h: 14, w: 14, f: 16, k: 3, stride: 1, pad: 1},
	{name: "stride 2", n: 3, c: 4, h: 15, w: 11, f: 8, k: 3, stride: 2, pad: 1},
	{name: "1x1 pad 1", n: 4, c: 8, h: 16, w: 16, f: 4, k: 1, stride: 1, pad: 1},
	{name: "pointwise", n: 4, c: 8, h: 16, w: 16, f: 8, k: 1, stride: 1, pad: 0},
	{name: "32x32", n: 2, c: 8, h: 32, w: 32, f: 16, k: 3, stride: 1, pad: 1},
	{name: "bias+ReLU", n: 4, c: 3, h: 16, w: 16, f: 8, k: 3, stride: 1, pad: 1, fused: true},
	{name: "C=32 k-blocked", n: 2, c: 32, h: 8, w: 8, f: 8, k: 3, stride: 1, pad: 1},
	{name: "F=12 tail", n: 3, c: 5, h: 9, w: 9, f: 12, k: 3, stride: 1, pad: 1},
	{name: "c=1 2x2", n: 3, c: 1, h: 16, w: 16, f: 8, k: 2, stride: 1, pad: 1},
	{name: "5x5 pad 2", n: 2, c: 4, h: 12, w: 12, f: 8, k: 5, stride: 1, pad: 2},
	{name: "w=24", n: 2, c: 3, h: 6, w: 24, f: 8, k: 3, stride: 1, pad: 1},
}

// convPinOutputs runs case i's forward and backward and hashes y, gx
// and gw.
func convPinOutputs(i int, cse convPinCase) [3]uint64 {
	rng := NewRNG(uint64(400 + i))
	x := RandNormal(rng, 0, 1, cse.n, cse.c, cse.h, cse.w)
	w := RandNormal(rng, 0, 0.5, cse.f, cse.c, cse.k, cse.k)
	var bias *Tensor
	act := ActNone
	if cse.fused {
		bias = RandNormal(rng, 0, 0.5, cse.f)
		act = ActReLU
	}
	y := Conv2DFused(x, w, bias, act, cse.stride, cse.pad)
	gy := RandNormal(rng, 0, 1, y.Shape()...)
	gx, gw := Conv2DBackward(x, w, gy, cse.stride, cse.pad)
	return [3]uint64{hashBits(y.Data()), hashBits(gx.Data()), hashBits(gw.Data())}
}

// parentConvHashes are the y, gx and gw hashes of convPinCases per GEMM
// tier, recorded on the commit before each image was lowered straight
// into the GEMM's panel (1 and 2 workers agreed); the last three rows on
// the commit before the convolution's data movement got its AVX2 bodies.
var parentConvHashes = map[string][][3]uint64{
	"ref": {
		{0xe131f87858d469d4, 0x729bc43d511c8955, 0xedfbb5d4c22cf227}, // train_conv 3->8
		{0xad7c4e093a0b1962, 0x3a5438506dbd37e1, 0xf1c92f057ddab526}, // train_conv 8->8
		{0xebe5087e61e0d0a2, 0x6338d7b0238668e6, 0x87191605130f9938}, // ConvFwdBwd 14x14
		{0xa71d6774a719ba51, 0xe282d4298ef6b4d1, 0xb093e8e0437614},   // stride 2
		{0x68df13ba7ec3d371, 0xc47f23e86f628d5d, 0xa7f37941265483ef}, // 1x1 pad 1
		{0x96818e1e068c6d46, 0x7f278c5b603025e7, 0x80711b17197f1489}, // pointwise
		{0x4d636c2b6d4860a5, 0x847d2fec468e0290, 0x41877eaf65d90833}, // 32x32
		{0x1b6197fdfb90bb6b, 0x21fe3e00845abd8e, 0x4aecd7e9c5de533a}, // bias+ReLU
		{0xd74ada59b609a488, 0x59dbad5835ecf650, 0x3cd140a05619a6e1}, // C=32 k-blocked
		{0x34cb75695b72805b, 0x1af689af31e234ce, 0x4cb6c89db8e1c3d5}, // F=12 tail
		{0xba1256ef99ce87e2, 0x900f3d4b2296b27c, 0x841bce7caea9a107}, // c=1 2x2
		{0xc7da1680ae289789, 0xef8b18be6b7b6d7f, 0xf5b6309b95fb75ec}, // 5x5 pad 2
		{0xd204a69921768437, 0xe20cfb04b104a669, 0x4994a3d45091484f}, // w=24
	},
	"sse": {
		{0xe131f87858d469d4, 0x729bc43d511c8955, 0xedfbb5d4c22cf227}, // train_conv 3->8
		{0xad7c4e093a0b1962, 0x3a5438506dbd37e1, 0xf1c92f057ddab526}, // train_conv 8->8
		{0xebe5087e61e0d0a2, 0x6338d7b0238668e6, 0x87191605130f9938}, // ConvFwdBwd 14x14
		{0xa71d6774a719ba51, 0xe282d4298ef6b4d1, 0xb093e8e0437614},   // stride 2
		{0x68df13ba7ec3d371, 0xc47f23e86f628d5d, 0xa7f37941265483ef}, // 1x1 pad 1
		{0x96818e1e068c6d46, 0x7f278c5b603025e7, 0x80711b17197f1489}, // pointwise
		{0x4d636c2b6d4860a5, 0x847d2fec468e0290, 0x41877eaf65d90833}, // 32x32
		{0x1b6197fdfb90bb6b, 0x21fe3e00845abd8e, 0x4aecd7e9c5de533a}, // bias+ReLU
		{0xd74ada59b609a488, 0x59dbad5835ecf650, 0x3cd140a05619a6e1}, // C=32 k-blocked
		{0x34cb75695b72805b, 0x1af689af31e234ce, 0x4cb6c89db8e1c3d5}, // F=12 tail
		{0xba1256ef99ce87e2, 0x900f3d4b2296b27c, 0x841bce7caea9a107}, // c=1 2x2
		{0xc7da1680ae289789, 0xef8b18be6b7b6d7f, 0xf5b6309b95fb75ec}, // 5x5 pad 2
		{0xd204a69921768437, 0xe20cfb04b104a669, 0x4994a3d45091484f}, // w=24
	},
	"avx2": {
		{0x3c014d539ed96f39, 0x523f5e41c29748c8, 0xc3c476dfae4967b3}, // train_conv 3->8
		{0xb02090cfecbcc6df, 0x8bbf21e1196e4695, 0xbdad64cfa6a9fae},  // train_conv 8->8
		{0x8148e0a0ab788ec, 0xc480ebf3a0ad52f, 0x27a48e23555ab3b5},   // ConvFwdBwd 14x14
		{0x6511c14d23423844, 0xacf7977144f6a25a, 0x7597ca9b08add1d0}, // stride 2
		{0x68df13ba7ec3d371, 0x2b8a8c2082731df0, 0xa7f37941265483ef}, // 1x1 pad 1
		{0xa4e8fb3712d2f4f0, 0xcc2d7b01e8c08949, 0xb131d93e732b74eb}, // pointwise
		{0xf9a8f228764c3e9f, 0xf18884b3331b83de, 0xe20a8ab0972bec4},  // 32x32
		{0x661c702753ede2c3, 0x41dedb1c3600d052, 0xd857ab70714a4142}, // bias+ReLU
		{0x693e82a85bc59752, 0x53d68d3f088b22c3, 0xd2104620d7043d97}, // C=32 k-blocked
		{0x4c2fcfb5f316fc2c, 0x6a19937ec3a6e97a, 0xa01b0448eb4d5a3b}, // F=12 tail
		{0x7c05691b1b88e641, 0x900f3d4b2296b27c, 0x841bce7caea9a107}, // c=1 2x2
		{0x8e1f5c8e20573523, 0x13ee3a2dfb4679d3, 0x5a64dab3c63c23f6}, // 5x5 pad 2
		{0xa6b57708bf828852, 0xca834ec42393983d, 0x26ffbaf7be6bb203}, // w=24
	},
}

// TestConvMatchesParentCommit holds every convolution output to the bits
// of the batch-wide lowering it replaced, on every tier, serial and
// parallel.
func TestConvMatchesParentCommit(t *testing.T) {
	defer SetParallelism(1)
	for _, tier := range GemmKernelTiers() {
		t.Run(tier, func(t *testing.T) {
			forceGemmTier(t, tier)
			for _, workers := range []int{1, 2} {
				SetParallelism(workers)
				for i, cse := range convPinCases {
					got := convPinOutputs(i, cse)
					want := parentConvHashes[tier]
					for j, name := range []string{"y", "gx", "gw"} {
						if got[j] != want[i][j] {
							t.Errorf("%s workers=%d: %s hash %#x, parent commit had %#x", cse.name, workers, name, got[j], want[i][j])
						}
					}
				}
			}
		})
	}
}

// FuzzConvShapes drives arbitrary (n, c, h, w, f, kh, kw, stride, pad),
// with and without a fused bias + ReLU, through Conv2DFused and
// Conv2DBackward on every GEMM tier at 1 and 3 workers, against convRef
// (the batch-wide lowering) bit for bit.
func FuzzConvShapes(f *testing.F) {
	prev := GemmKernelTier()
	f.Cleanup(func() {
		SetParallelism(1)
		if _, err := SetGemmKernelTier(prev); err != nil {
			f.Fatal(err)
		}
	})
	for _, c := range convPinCases {
		f.Add(uint8(c.n), uint8(c.c), uint8(c.h), uint8(c.w), uint8(c.f), uint8(c.k), uint8(c.k), uint8(c.stride), uint8(c.pad), c.fused)
	}
	// A kernel wider than the padded input, a window overhanging the far
	// border at stride 3, and a rectangular kernel with ragged strips.
	f.Add(uint8(2), uint8(2), uint8(1), uint8(3), uint8(8), uint8(5), uint8(3), uint8(1), uint8(2), false)
	f.Add(uint8(3), uint8(3), uint8(10), uint8(8), uint8(16), uint8(3), uint8(3), uint8(3), uint8(0), true)
	f.Add(uint8(2), uint8(6), uint8(7), uint8(13), uint8(8), uint8(2), uint8(4), uint8(1), uint8(1), false)
	f.Fuzz(func(t *testing.T, nb, cb, hb, wb, fb, khb, kwb, sb, pb uint8, fused bool) {
		n, c, h, w, fo := 1+int(nb)%4, 1+int(cb)%12, 1+int(hb)%20, 1+int(wb)%20, 1+int(fb)%24
		kh, kw, stride, pad := 1+int(khb)%6, 1+int(kwb)%6, 1+int(sb)%3, int(pb)%4
		if ConvOut(h, kh, stride, pad) <= 0 || ConvOut(w, kw, stride, pad) <= 0 {
			t.Skip("empty output")
		}
		rng := NewRNG(uint64(n)<<40 | uint64(c)<<32 | uint64(h)<<24 | uint64(w)<<16 | uint64(fo)<<8 | uint64(kh*7+kw))
		x := RandNormal(rng, 0, 1, n, c, h, w)
		wt := RandNormal(rng, 0, 0.5, fo, c, kh, kw)
		var bias *Tensor
		act := ActNone
		if fused {
			bias, act = RandNormal(rng, 0, 0.5, fo), ActReLU
		}
		gy := RandNormal(rng, 0, 1, n, fo, ConvOut(h, kh, stride, pad), ConvOut(w, kw, stride, pad))
		for _, tier := range GemmKernelTiers() {
			if _, err := SetGemmKernelTier(tier); err != nil {
				t.Fatal(err)
			}
			SetParallelism(1)
			wantY, wantGX, wantGW := convRef(x, wt, bias, act, gy, stride, pad)
			for _, workers := range []int{1, 3} {
				SetParallelism(workers)
				y := Conv2DFused(x, wt, bias, act, stride, pad)
				gx, gw := Conv2DBackward(x, wt, gy, stride, pad)
				for _, o := range []struct {
					name      string
					got, want *Tensor
				}{{"y", y, wantY}, {"gx", gx, wantGX}, {"gw", gw, wantGW}} {
					if i, ok := bitsEqual(o.got.Data(), o.want.Data()); !ok {
						t.Fatalf("%s tier=%s workers=%d x=%v w=%v s=%d p=%d fused=%v: [%d] = %v, reference %v",
							o.name, tier, workers, x.Shape(), wt.Shape(), stride, pad, fused, i, o.got.Data()[i], o.want.Data()[i])
					}
				}
				y.Release()
				gx.Release()
				gw.Release()
			}
		}
	})
}

// TestConv2DBackwardRejectsBadShapes holds Conv2DBackward to a named panic
// on inputs that disagree with each other, before any body reads memory
// by the wrong shape.
func TestConv2DBackwardRejectsBadShapes(t *testing.T) {
	rng := NewRNG(9)
	x := RandNormal(rng, 0, 1, 2, 3, 8, 8)
	w := RandNormal(rng, 0, 1, 4, 3, 3, 3)
	for _, c := range []struct {
		name, want string
		x, w, gy   *Tensor
	}{
		{"gy one pixel larger", "gy [2 4 9 9], want [2 4 8 8]", x, w, New(2, 4, 9, 9)},
		{"gy permuted", "gy [2 8 8 4], want [2 4 8 8]", x, w, New(2, 8, 8, 4)},
		{"w has 5 channels", "channel mismatch [2 3 8 8], [4 5 3 3]", x, New(4, 5, 3, 3), New(2, 4, 8, 8)},
		{"x not NCHW", "needs NCHW/FCHW", New(3, 8, 8), w, New(2, 4, 8, 8)},
	} {
		t.Run(c.name, func(t *testing.T) {
			defer func() {
				msg, _ := recover().(string)
				if !strings.Contains(msg, "Conv2DBackward") || !strings.Contains(msg, c.want) {
					t.Fatalf("panic %q, want one naming Conv2DBackward and %q", msg, c.want)
				}
			}()
			Conv2DBackward(c.x, c.w, c.gy, 1, 1)
		})
	}
}
