package graph

import (
	"fmt"

	"tbd/internal/layers"
	"tbd/internal/tensor"
)

// Weight sharing for replicated serving: a fleet of N inference replicas
// needs N independent layer stacks (layers recycle their output buffers,
// so a network is single-goroutine property) but only ONE copy of the
// weights. ShareParamsFrom turns N same-architecture networks into views
// over a single snapshot: every frozen matrix of the source is adopted
// by pointer and every other parameter tensor's backing storage is
// aliased, so the fleet's resident weight bytes stay those of one model,
// in either storage precision.

// ShareParamsFrom makes n serve src's weights. src must be another
// *Network built by the same constructor, and n must not be frozen: n's
// parameter list must be src's frozen weights and remaining parameters
// merged in order (same names and shapes). n adopts each frozen matrix, so it ends up frozen
// exactly as src is, and aliases the storage of every other parameter,
// so a write into src's parameters (a checkpoint load into an unfrozen
// src) is visible through n. n's own initial weights become garbage.
//
// The receiver must be used forward-only afterwards: training either
// network would write gradients through shared storage with no
// synchronization. Non-parameter state (batch-norm running statistics,
// layer output buffers) stays per-network, which is exactly what
// concurrent replicas need.
//
// The src parameter is typed any so forward-only consumers
// (internal/serve) can reach this method through a duck-typed interface
// without importing graph; passing anything but a *Network is an error.
func (n *Network) ShareParamsFrom(src any) error {
	o, ok := src.(*Network)
	if !ok {
		return fmt.Errorf("graph: ShareParamsFrom needs a *graph.Network, got %T", src)
	}
	if n == o {
		return nil
	}
	dst, from, frozen := n.Params(), o.Params(), o.frozen
	if len(dst) != len(from)+len(frozen) {
		return fmt.Errorf("graph: ShareParamsFrom: network has %d parameters, source has %d",
			len(dst), len(from)+len(frozen))
	}
	// Validate the full list before adopting or aliasing anything, so a
	// mismatch cannot leave the network half-shared.
	for i, p := range dst {
		if len(frozen) > 0 && frozen[0].name == p.Name {
			if k, m := frozen[0].w.Shape(); p.Value.Rank() != 2 || p.Value.Dim(0) != k || p.Value.Dim(1) != m {
				return fmt.Errorf("graph: ShareParamsFrom: parameter %q shape %v here, frozen [%d %d] in source",
					p.Name, p.Value.Shape(), k, m)
			}
			frozen = frozen[1:]
			continue
		}
		if len(from) == 0 {
			return fmt.Errorf("graph: ShareParamsFrom: parameter %d is %q here but %q in source", i, p.Name, frozen[0].name)
		}
		q := from[0]
		if p.Name != q.Name {
			return fmt.Errorf("graph: ShareParamsFrom: parameter %d is %q here but %q in source", i, p.Name, q.Name)
		}
		if !p.Value.SameShape(q.Value) {
			return fmt.Errorf("graph: ShareParamsFrom: parameter %q shape %v here, %v in source",
				p.Name, p.Value.Shape(), q.Value.Shape())
		}
		from = from[1:]
	}
	if o.Frozen() {
		n.frozen = o.frozen
		next := n.frozen
		n.Root.(layers.Freezer).Freeze(func(p *layers.Param) *tensor.FrozenMatrix {
			if len(next) == 0 || next[0].name != p.Name {
				panic(fmt.Sprintf("graph: ShareParamsFrom: %q freezes out of its Params order", p.Name))
			}
			w := next[0].w
			next = next[1:]
			return w
		})
		n.params = nil
	}
	for i, p := range n.Params() {
		p.Value.ShareStorage(o.Params()[i].Value)
	}
	return nil
}
