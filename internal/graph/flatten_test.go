package graph

import (
	"encoding/binary"
	"errors"
	"hash/fnv"
	"math"
	"slices"
	"testing"

	"tbd/internal/layers"
	"tbd/internal/optim"
	"tbd/internal/tensor"
)

func flattenNet(seed uint64) *Network {
	rng := tensor.NewRNG(seed)
	return New("flat-mlp", layers.NewSequential("mlp",
		layers.NewDense("fc1", 4, 8, rng),
		layers.NewReLU("relu"),
		layers.NewDense("fc2", 8, 3, rng),
	))
}

func TestGradVectorRoundTrip(t *testing.T) {
	n := flattenNet(1)
	// Produce real gradients.
	x := tensor.RandNormal(tensor.NewRNG(2), 0, 1, 6, 4)
	TrainClassifierStep(n, optim.NewSGD(0), x, []int{0, 1, 2, 0, 1, 2}, 0)

	flat := n.GradVector(nil)
	if len(flat) != n.GradElems() {
		t.Fatalf("flat vector has %d elements, GradElems says %d", len(flat), n.GradElems())
	}
	want := int(n.ParamCount())
	if len(flat) != want {
		t.Fatalf("GradElems %d != ParamCount %d", len(flat), want)
	}

	// The flat vector must be the in-order concatenation.
	off := 0
	for _, p := range n.Params() {
		for _, g := range p.Grad.Data() {
			if flat[off] != g {
				t.Fatalf("flat[%d] = %g, want %g", off, flat[off], g)
			}
			off++
		}
	}

	// Scatter back after scaling: gradients must carry the change exactly.
	for i := range flat {
		flat[i] *= 0.5
	}
	n.SetGradVector(flat)
	off = 0
	for _, p := range n.Params() {
		for _, g := range p.Grad.Data() {
			if g != flat[off] {
				t.Fatalf("scatter mismatch at %d: %g vs %g", off, g, flat[off])
			}
			off++
		}
	}

	// A correctly sized destination is reused, not reallocated.
	again := n.GradVector(flat)
	if &again[0] != &flat[0] {
		t.Fatal("GradVector allocated despite a right-sized dst")
	}
}

func TestSetGradVectorValidates(t *testing.T) {
	n := flattenNet(3)
	defer func() {
		if recover() == nil {
			t.Fatal("want panic on wrong-length gradient vector")
		}
	}()
	n.SetGradVector(make([]float32, 3))
}

func TestWeightsHashDetectsSingleBitChange(t *testing.T) {
	a, b := flattenNet(7), flattenNet(7)
	if a.WeightsHash() != b.WeightsHash() {
		t.Fatal("identically seeded networks must hash equal")
	}
	// Flip the low mantissa bit of one scalar: hash must change.
	d := b.Params()[0].Value.Data()
	d[0] = flipLowBit(d[0])
	if a.WeightsHash() == b.WeightsHash() {
		t.Fatal("hash ignored a one-bit weight change")
	}
}

func flipLowBit(v float32) float32 {
	return math.Float32frombits(math.Float32bits(v) ^ 1)
}

func TestWeightsHashIsHashFNV(t *testing.T) {
	// The inline fold against hash/fnv fed one scalar's four
	// little-endian bytes at a time, as WeightsHash once was.
	n := flattenNet(9)
	ref := fnv.New64a()
	var all []byte
	for _, p := range n.Params() {
		for _, v := range p.Value.Data() {
			all = binary.LittleEndian.AppendUint32(all, math.Float32bits(v))
			_, _ = ref.Write(all[len(all)-4:])
		}
	}
	if got, want := n.WeightsHash(), ref.Sum64(); got != want {
		t.Fatalf("WeightsHash %#x, hash/fnv %#x", got, want)
	}
	if got := FNV64a(FNV64a(FNVOffset64, all[:7]), all[7:]); got != ref.Sum64() {
		t.Fatalf("FNV64a folded in two pieces %#x, hash/fnv %#x", got, ref.Sum64())
	}
}

func TestWeightsHashDiffersAcrossSeeds(t *testing.T) {
	if flattenNet(1).WeightsHash() == flattenNet(2).WeightsHash() {
		t.Fatal("different initializations should not collide")
	}
}

func TestFlatParamsBacksEveryParam(t *testing.T) {
	x := tensor.RandNormal(tensor.NewRNG(2), 0, 1, 6, 4)
	labels := []int{0, 1, 2, 0, 1, 2}
	plain, flat := flattenNet(4), flattenNet(4)
	TrainClassifierStep(flat, optim.NewSGD(0.1), x, labels, 0) // gradients to copy in
	TrainClassifierStep(plain, optim.NewSGD(0.1), x, labels, 0)
	grads := flat.GradVector(nil)
	values, g := flat.FlatParams()
	if !slices.Equal(g, grads) || len(values) != flat.GradElems() {
		t.Fatal("FlatParams did not copy the gradients in, in Params() order")
	}
	// Every Value and Grad is now a view of its slot.
	off := 0
	for _, p := range flat.Params() {
		k := p.Value.Numel()
		if &p.Value.Data()[0] != &values[off] || &p.Grad.Data()[0] != &g[off] || cap(p.Value.Data()) != k {
			t.Fatalf("%s is not a view of slot [%d, %d)", p.Name, off, off+k)
		}
		off += k
	}
	if v2, g2 := flat.FlatParams(); &v2[0] != &values[0] || &g2[0] != &g[0] {
		t.Fatal("a second FlatParams call built new buffers")
	}
	// Training on the views is training on the network.
	for i := 0; i < 3; i++ {
		TrainClassifierStep(flat, optim.NewSGD(0.1), x, labels, 0)
		TrainClassifierStep(plain, optim.NewSGD(0.1), x, labels, 0)
	}
	if flat.WeightsHash() != plain.WeightsHash() {
		t.Fatal("flattened network trained to other weights")
	}
}

func TestFlatParamsRejectsRepeatedParam(t *testing.T) {
	fc := layers.NewDense("fc", 3, 3, tensor.NewRNG(1))
	n := New("tied", layers.NewSequential("seq", fc, fc))
	defer func() {
		err, ok := recover().(error)
		if !ok || !errors.Is(err, ErrRepeatedParam) {
			t.Fatalf("want a panic with ErrRepeatedParam, got %v", err)
		}
	}()
	n.FlatParams()
}
