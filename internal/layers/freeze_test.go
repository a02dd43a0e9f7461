package layers

import (
	"fmt"
	"strings"
	"testing"

	"tbd/internal/tensor"
)

// freezeAll freezes l (which must be a Freezer) in the given storage and
// returns the names of the weights it froze, in the order it froze them.
func freezeAll(t *testing.T, l Layer, half bool) []string {
	t.Helper()
	var names []string
	l.(Freezer).Freeze(func(w *Param) *tensor.FrozenMatrix {
		names = append(names, w.Name)
		return tensor.Freeze(w.Value, half)
	})
	return names
}

// TestFrozenDenseRefusesTraining: a frozen Dense drops W from its
// parameters and from memory, serves eval forwards, and panics with a
// message naming the layer when asked to train.
func TestFrozenDenseRefusesTraining(t *testing.T) {
	for _, half := range []bool{false, true} {
		rng := tensor.NewRNG(3)
		d := NewDenseAct("fc7", 16, 12, tensor.ActReLU, rng)
		w := d.W
		if got := freezeAll(t, d, half); len(got) != 1 || got[0] != "fc7.W" {
			t.Fatalf("froze %v, want [fc7.W]", got)
		}
		if w.Value != nil || w.Grad != nil {
			t.Fatal("frozen Dense still holds its fp32 weights or gradient")
		}
		if ps := d.Params(); len(ps) != 1 || ps[0] != d.B {
			t.Fatalf("frozen Dense params %v, want only the bias", ps)
		}
		if got := freezeAll(t, d, half); len(got) != 0 {
			t.Fatalf("a second Freeze froze %v again", got)
		}
		x := tensor.RandNormal(rng, 0, 1, 5, 16)
		if y := d.Forward(x, false); y.Dim(0) != 5 || y.Dim(1) != 12 {
			t.Fatalf("eval forward shape %v", y.Shape())
		}
		func() {
			defer func() {
				msg := fmt.Sprint(recover())
				if !strings.Contains(msg, "fc7") || !strings.Contains(msg, "frozen") {
					t.Fatalf("half=%v: training a frozen Dense panicked with %q, want a message naming fc7 and its frozen weights", half, msg)
				}
			}()
			d.Forward(x, true)
		}()
	}
}

// TestFreezeWalksParamsOrder: containers freeze their Dense layers in
// Params order, the order a serving replica adopts a primary's frozen
// matrices in.
func TestFreezeWalksParamsOrder(t *testing.T) {
	rng := tensor.NewRNG(4)
	net := NewSequential("net",
		NewDenseAct("a", 8, 8, tensor.ActReLU, rng),
		NewResidual("res", NewDenseAct("b", 8, 8, tensor.ActReLU, rng), NewDenseNoBias("proj", 8, 8, rng)),
		NewReLU("relu"),
		NewDense("c", 8, 3, rng),
	)
	var want []string
	for _, p := range net.Params() {
		if strings.HasSuffix(p.Name, ".W") {
			want = append(want, p.Name)
		}
	}
	if got := freezeAll(t, net, false); strings.Join(got, ",") != strings.Join(want, ",") {
		t.Fatalf("froze %v, want the weights in Params order %v", got, want)
	}
	if n := len(net.Params()); n != 3 {
		t.Fatalf("%d params left after freezing, want the 3 biases", n)
	}
}
