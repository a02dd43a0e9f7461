package graph

import (
	"testing"

	"tbd/internal/layers"
	"tbd/internal/tensor"
)

func shareTestNet(seed uint64) *Network {
	rng := tensor.NewRNG(seed)
	return New("share-twin", layers.NewSequential("mlp",
		layers.NewDenseAct("fc1", 8, 16, tensor.ActReLU, rng),
		layers.NewDense("fc2", 16, 4, rng),
	))
}

// TestShareParamsFrom: after sharing, two differently-initialized
// networks produce bit-identical forwards, report aliased storage, and a
// checkpoint loaded into the primary is visible through the replica
// without any further copying — the fleet hot-swap handoff.
func TestShareParamsFrom(t *testing.T) {
	primary := shareTestNet(1)
	replica := shareTestNet(2) // different seed: provably different weights

	x := tensor.RandNormal(tensor.NewRNG(7), 0, 1, 3, 8)
	before := append([]float32(nil), replica.Forward(x, false).Data()...)
	wantPrimary := append([]float32(nil), primary.Forward(x, false).Data()...)

	if replica.SharesParamsWith(primary) {
		t.Fatal("independent networks report shared params")
	}
	if err := replica.ShareParamsFrom(primary); err != nil {
		t.Fatal(err)
	}
	if !replica.SharesParamsWith(primary) {
		t.Fatal("SharesParamsWith false after ShareParamsFrom")
	}

	got := replica.Forward(x, false).Data()
	differs := false
	for i := range got {
		if got[i] != wantPrimary[i] {
			t.Fatalf("shared replica elem %d = %g, primary %g (must be bit-identical)", i, got[i], wantPrimary[i])
		}
		if got[i] != before[i] {
			differs = true
		}
	}
	if !differs {
		t.Fatal("replica output unchanged by sharing; test is vacuous")
	}

	// Weight handoff (what a checkpoint load does): writing into the
	// primary's parameters in place must flow through the replica's aliased
	// storage.
	donor := shareTestNet(3)
	for i, p := range donor.Params() {
		copy(primary.Params()[i].Value.Data(), p.Value.Data())
	}
	wantDonor := donor.Forward(x, false).Data()
	gotReplica := replica.Forward(x, false).Data()
	for i := range wantDonor {
		if gotReplica[i] != wantDonor[i] {
			t.Fatalf("post-checkpoint replica elem %d = %g, donor %g", i, gotReplica[i], wantDonor[i])
		}
	}
}

// TestShareParamsFromMismatch: architecture drift is refused before any
// parameter is aliased.
func TestShareParamsFromMismatch(t *testing.T) {
	n := shareTestNet(1)
	rng := tensor.NewRNG(2)
	other := New("other", layers.NewSequential("mlp",
		layers.NewDenseAct("fc1", 8, 16, tensor.ActReLU, rng),
		layers.NewDense("fc2", 16, 5, rng), // different output width
	))
	if err := n.ShareParamsFrom(other); err == nil {
		t.Fatal("shape mismatch not refused")
	}
	if n.SharesParamsWith(other) {
		t.Fatal("network left sharing after refused ShareParamsFrom")
	}
	if err := n.ShareParamsFrom("not a network"); err == nil {
		t.Fatal("non-network source not refused")
	}
	// Self-share is a no-op, not an error.
	if err := n.ShareParamsFrom(n); err != nil {
		t.Fatal(err)
	}
}

// TestShareParamsFromFrozenSource: freeze, then share. A replica of a
// frozen primary adopts the primary's frozen matrices (the same pointers,
// in either storage), aliases the remaining parameters, and serves the
// primary's bits. A network that froze its own weights cannot share, and
// a mismatched network is refused with its weights untouched.
func TestShareParamsFromFrozenSource(t *testing.T) {
	x := tensor.RandNormal(tensor.NewRNG(7), 0, 1, 11, 8)
	for _, half := range []bool{false, true} {
		primary, replica := shareTestNet(1), shareTestNet(2)
		if !primary.Freeze(half) || !primary.Frozen() {
			t.Fatal("primary did not freeze")
		}
		want := append([]float32(nil), primary.Forward(x, false).Data()...)
		if err := replica.ShareParamsFrom(primary); err != nil {
			t.Fatal(err)
		}
		if !replica.Frozen() || !replica.SharesParamsWith(primary) {
			t.Fatalf("half=%v: replica frozen=%v, shares the biases=%v", half, replica.Frozen(), replica.SharesParamsWith(primary))
		}
		for i, w := range replica.frozen {
			if w != primary.frozen[i] {
				t.Fatalf("half=%v: replica holds its own %q, not the primary's", half, w.name)
			}
		}
		if replica.WeightBytes() != primary.WeightBytes() {
			t.Fatalf("half=%v: replica reports %d weight bytes, primary %d", half, replica.WeightBytes(), primary.WeightBytes())
		}
		got := replica.Forward(x, false).Data()
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("half=%v: replica elem %d = %g, primary %g", half, i, got[i], want[i])
			}
		}

		own := shareTestNet(3)
		own.Freeze(half)
		if err := own.ShareParamsFrom(primary); err == nil {
			t.Fatal("a network frozen on its own was allowed to share")
		}

		rng := tensor.NewRNG(4)
		other := New("other", layers.NewSequential("mlp",
			layers.NewDenseAct("fc1", 8, 16, tensor.ActReLU, rng),
			layers.NewDense("fc2", 16, 5, rng), // different output width
		))
		hash := other.WeightsHash()
		if err := other.ShareParamsFrom(primary); err == nil {
			t.Fatal("shape mismatch against a frozen source not refused")
		}
		if other.Frozen() || other.WeightsHash() != hash {
			t.Fatal("a refused ShareParamsFrom changed the network")
		}
	}
}

// SharesParamsWith reports whether every parameter of n aliases the
// corresponding parameter storage of o (the post-ShareParamsFrom state).
func (n *Network) SharesParamsWith(o *Network) bool {
	a, b := n.Params(), o.Params()
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		av, bv := a[i].Value.Data(), b[i].Value.Data()
		if len(av) == 0 || len(bv) == 0 || &av[0] != &bv[0] {
			return false
		}
	}
	return true
}
