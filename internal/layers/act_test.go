package layers

import (
	"math"
	"strings"
	"testing"

	"tbd/internal/tensor"
)

// The activation layer stashes its own output instead of a mask. These
// pin what callers could see of the old ReLU: the train/eval stash
// protocol, the stash's byte count, and a multiply (not a select) in the
// backward pass.

func TestReLUStashFollowsTrainMode(t *testing.T) {
	x := tensor.RandNormal(tensor.NewRNG(3), 0, 1, 4, 9)
	l := NewReLU("relu")
	if got := l.StashBytes(); got != 0 {
		t.Fatalf("StashBytes before Forward = %d", got)
	}
	l.Forward(x, true)
	if got, want := l.StashBytes(), int64(4*x.Numel()); got != want {
		t.Fatalf("StashBytes after train Forward = %d, want %d", got, want)
	}
	l.Backward(tensor.Ones(4, 9))

	l.Forward(x, false)
	if got := l.StashBytes(); got != 0 {
		t.Fatalf("StashBytes after eval Forward = %d", got)
	}
	defer func() {
		msg, _ := recover().(string)
		if !strings.Contains(msg, "relu.Backward called before Forward(train=true)") {
			t.Fatalf("Backward after an eval Forward: recovered %q", msg)
		}
	}()
	l.Backward(tensor.Ones(4, 9))
}

// A NaN upstream gradient must reach gx both where the unit fired and
// where it did not: 0 * NaN is NaN, and the old mask multiply said so.
func TestReLUBackwardPropagatesNaNGradient(t *testing.T) {
	orig := tensor.GemmKernelTier()
	t.Cleanup(func() {
		if _, err := tensor.SetGemmKernelTier(orig); err != nil {
			t.Fatal(err)
		}
	})
	for _, tier := range tensor.GemmKernelTiers() {
		if _, err := tensor.SetGemmKernelTier(tier); err != nil {
			t.Fatal(err)
		}
		// Nine elements: one AVX2 vector and a scalar tail.
		x := tensor.FromSlice([]float32{2, -3, 0, 1, -1, 5, -7, 4, -6}, 1, 9)
		nan := float32(math.NaN())
		gy := tensor.FromSlice([]float32{nan, nan, nan, 1, 1, 1, 1, nan, nan}, 1, 9)
		l := NewReLU("relu")
		y := l.Forward(x, true)
		gx := l.Backward(gy)
		for i, g := range gx.Data() {
			wantNaN := math.IsNaN(float64(gy.Data()[i]))
			if math.IsNaN(float64(g)) != wantNaN {
				t.Errorf("tier %s: gx[%d] = %v with y = %v, gy = %v", tier, i, g, y.Data()[i], gy.Data()[i])
			}
		}
	}
}
