package graph

import (
	"errors"
	"fmt"
	"math"

	"tbd/internal/layers"
	"tbd/internal/tensor"
)

// Parameter flattening and fingerprinting for the distributed runtime
// (internal/dist): the ring exchanges one contiguous gradient vector and
// one contiguous weight vector instead of dozens of ragged per-layer
// slices, and multi-process training proves replica consistency by
// hashing weight bytes.

// ErrRepeatedParam is FlatParams' panic value when Params() lists one
// *Param twice: two slots of the flat buffers cannot back one tensor.
var ErrRepeatedParam = errors.New("graph: FlatParams: a parameter appears twice in Params()")

// FlatParams returns one contiguous buffer holding every parameter value
// and one holding every gradient, in Params() order. The first call copies
// them in and rebinds each Param's Value and Grad as a view of its slot (a
// tensor kept from before is stale); later calls return the same buffers.
func (n *Network) FlatParams() (values, grads []float32) {
	if n.flatValues != nil {
		return n.flatValues, n.flatGrads
	}
	params := n.Params()
	seen := make(map[*layers.Param]bool, len(params))
	for _, p := range params {
		if seen[p] {
			panic(fmt.Errorf("%w: %s", ErrRepeatedParam, p.Name))
		}
		seen[p] = true
	}
	total := n.GradElems()
	values, grads = make([]float32, total), make([]float32, total)
	off := 0
	for _, p := range params {
		end := off + p.Value.Numel()
		copy(values[off:end], p.Value.Data())
		copy(grads[off:end], p.Grad.Data())
		p.Value = tensor.FromSlice(values[off:end:end], p.Value.Shape()...)
		p.Grad = tensor.FromSlice(grads[off:end:end], p.Grad.Shape()...)
		off = end
	}
	n.flatValues, n.flatGrads = values, grads
	return values, grads
}

// GradElems returns the total number of gradient scalars across all
// trainable parameters — the flat-vector length GradVector produces.
func (n *Network) GradElems() int {
	var total int
	for _, p := range n.Params() {
		total += p.Grad.Numel()
	}
	return total
}

// GradVector gathers every parameter gradient into one flat vector in
// parameter order. dst is reused when it has exactly GradElems capacity
// behavior-wise (len(dst) == GradElems()); otherwise a fresh slice is
// allocated. The concatenation order is the Params() walk order, which is
// fixed by network construction, so the same network always flattens the
// same way — the precondition for the ring's fixed reduction order.
func (n *Network) GradVector(dst []float32) []float32 {
	total := n.GradElems()
	if len(dst) != total {
		dst = make([]float32, total)
	}
	off := 0
	for _, p := range n.Params() {
		off += copy(dst[off:], p.Grad.Data())
	}
	return dst
}

// SetGradVector scatters a flat gradient vector (as produced by
// GradVector) back into the parameter gradients.
func (n *Network) SetGradVector(src []float32) {
	if len(src) != n.GradElems() {
		panic(fmt.Sprintf("graph: gradient vector has %d elements, network needs %d", len(src), n.GradElems()))
	}
	off := 0
	for _, p := range n.Params() {
		g := p.Grad.Data()
		off += copy(g, src[off:off+len(g)])
	}
}

// FNV-1a, 64-bit: the fingerprint hash/fnv's New64a computes, folded
// inline so a weight costs no method call.
const (
	FNVOffset64 uint64 = 14695981039346656037
	fnvPrime64  uint64 = 1099511628211
)

// FNV64a folds b into the FNV-1a state h: FNV64a(FNVOffset64, b) is
// hash/fnv's New64a sum of b, and folding b in pieces equals folding it
// whole.
func FNV64a(h uint64, b []byte) uint64 {
	for _, c := range b {
		h = (h ^ uint64(c)) * fnvPrime64
	}
	return h
}

// WeightsHash returns an FNV-1a fingerprint over the exact bit patterns
// of every trainable parameter in Params() order, each scalar as its
// four little-endian bytes. Two networks hash equal iff their weights are
// bit-identical — the check the distributed runtime uses to verify that N
// workers finished a run with the same model, and that a repeated run
// reproduced the same trajectory.
func (n *Network) WeightsHash() uint64 {
	h := FNVOffset64
	for _, p := range n.Params() {
		for _, v := range p.Value.Data() {
			u := uint64(math.Float32bits(v))
			h = (h ^ u&0xff) * fnvPrime64
			h = (h ^ u>>8&0xff) * fnvPrime64
			h = (h ^ u>>16&0xff) * fnvPrime64
			h = (h ^ u>>24) * fnvPrime64
		}
	}
	return h
}
