package graph

import (
	"fmt"
)

// Weight sharing for replicated serving: a fleet of N inference replicas
// needs N independent layer stacks (layers recycle their output buffers,
// so a network is single-goroutine property) but only ONE copy of the
// weights. ShareParamsFrom turns N same-architecture networks into views
// over a single parameter snapshot by aliasing every parameter tensor's
// backing storage, so the fleet's resident weight bytes stay those of one
// model and a checkpoint loaded into the primary is immediately visible
// to every sharing replica.

// ShareParamsFrom repoints every trainable parameter of n at src's
// backing storage. src must be another *Network with an identical
// parameter list (same names, order, and shapes) — typically a second
// instance built by the same constructor. After sharing, n reads src's
// weights on every forward; n's own initial weights become garbage.
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
	dst, from := n.Params(), o.Params()
	if len(dst) != len(from) {
		return fmt.Errorf("graph: ShareParamsFrom: network has %d parameters, source has %d", len(dst), len(from))
	}
	// Validate the full list before aliasing anything, so a mismatch
	// cannot leave the network half-shared.
	for i, p := range dst {
		q := from[i]
		if p.Name != q.Name {
			return fmt.Errorf("graph: ShareParamsFrom: parameter %d is %q here but %q in source", i, p.Name, q.Name)
		}
		if !p.Value.SameShape(q.Value) {
			return fmt.Errorf("graph: ShareParamsFrom: parameter %q shape %v here, %v in source",
				p.Name, p.Value.Shape(), q.Value.Shape())
		}
	}
	for i, p := range dst {
		p.Value.ShareStorage(from[i].Value)
	}
	return nil
}
