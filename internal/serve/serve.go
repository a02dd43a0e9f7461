// Package serve turns trained model twins into a load-bearing inference
// service. It provides the missing half of the benchmark story: the
// paper's batch-size Observations (throughput rises steeply with
// mini-batch size until the device saturates) apply just as much to
// request serving as to training, but concurrent clients naturally issue
// single-sample requests. The dynamic micro-batcher here coalesces those
// requests into GEMM-friendly batches under a max-batch / max-wait
// policy, with bounded-queue admission control in front and latency
// histograms behind, so the throughput-vs-latency trade can be measured
// rather than guessed.
//
// Architecture (one Fleet; a single replica is the degenerate case, not
// a separate code path):
//
//	clients ──PredictSLO──▶ router ──▶ replica 0: queue ─▶ runner ─▶ Session ┐
//	   ▲                      │        replica 1: queue ─▶ runner ─▶ Session ├─ shared
//	   │                      │            ⋮                                 │  weights
//	   └── results            └─▶ shed: ErrOverloaded (queues full)          ┘
//	                              or ErrDeadline (SLO infeasible)
//
// The router (router.go) places each request on the replica with the
// smallest estimated completion time and sheds what cannot be served:
// bounded queues are the admission control. Each replica's runner
// goroutine is the dynamic micro-batcher — coalesce up to MaxBatch, or
// flush at MaxWait — over its own Session (frozen network, fused kernels,
// replica-owned batch workspace).
//
// Weights are frozen, then shared. The fleet freezes the primary
// session's weight matrices once into the GEMM's panel layout (fp32, or
// fp16 under FleetConfig.HalfWeights), so no served forward packs a
// weight; every other replica adopts those frozen matrices and aliases
// the remaining parameters, so N replicas hold one snapshot in either
// precision.
//
// Layers recycle their output buffers across forward calls, so a network
// is single-goroutine property; each replica owns one Session and one
// runner goroutine, and concurrency comes from batching and from
// replicas, not from racing forwards. The package clamps the shared GEMM
// worker pool (cpu.go) so the combined parallelism of all runners never
// oversubscribes GOMAXPROCS.
package serve

import (
	"fmt"

	"tbd/internal/tensor"
)

// Model is the forward-only surface the session needs; *graph.Network
// implements it. train is always false on the serving path.
type Model interface {
	Forward(x *tensor.Tensor, train bool) *tensor.Tensor
}

// Session is a forward-only inference session over a network.
// It carries no optimizer state and never stashes feature maps (all
// forwards run with train=false). A Session is not safe for concurrent
// use — the owning replica's runner serializes batches onto it.
type Session struct {
	model       Model
	sampleShape []int
	sampleLen   int
}

// NewSession wraps a model for inference; its weights stay as they are
// until Freeze (which a Fleet calls). sampleShape is the shape of
// one request sample (without the batch dimension), e.g. [3, 16, 16] for
// an NCHW image model or [T] for a token-sequence model.
func NewSession(m Model, sampleShape ...int) *Session {
	if m == nil {
		panic("serve: nil model")
	}
	if len(sampleShape) == 0 {
		panic("serve: session needs a per-sample input shape")
	}
	n := 1
	for _, d := range sampleShape {
		if d <= 0 {
			panic(fmt.Sprintf("serve: non-positive dimension in sample shape %v", sampleShape))
		}
		n *= d
	}
	return &Session{
		model:       m,
		sampleShape: append([]int(nil), sampleShape...),
		sampleLen:   n,
	}
}

// Model returns the session's underlying model (for checkpoint loaders
// that need the concrete network behind a fleet replica).
func (s *Session) Model() Model { return s.model }

// ShareWeightsFrom makes this session serve src's weights: it adopts
// src's frozen matrices and aliases the storage of its other parameters,
// so the two sessions serve one weight snapshot (the fleet's
// replica-sharing primitive; see graph.Network.ShareParamsFrom).
// Returns ErrNoWeightSharing when the model does not expose the
// capability — the fleet then falls back to per-replica weights.
func (s *Session) ShareWeightsFrom(src *Session) error {
	m, ok := s.model.(interface{ ShareParamsFrom(src any) error })
	if !ok {
		return ErrNoWeightSharing
	}
	return m.ShareParamsFrom(src.model)
}

// SampleShape returns the per-sample input shape (not a copy; do not
// mutate).
func (s *Session) SampleShape() []int { return s.sampleShape }

// SampleLen returns the number of elements in one sample.
func (s *Session) SampleLen() int { return s.sampleLen }

// InferBatch runs an eval-mode forward over a [n, sampleShape...] batch.
// The returned tensor is owned by the model's layers and valid only until
// the next InferBatch call; copy rows out before reusing the session.
func (s *Session) InferBatch(x *tensor.Tensor) *tensor.Tensor {
	return s.model.Forward(x, false)
}

// Freeze replaces the model's weight matrices with their frozen form
// (tensor.FrozenMatrix: the GEMM's panel layout, packed once), in fp16
// storage when half, and reports whether the model supports freezing.
// fp32 storage keeps every full 8-row tile's bits; fp16 shifts outputs
// within the weight quantization error. Duck-typed so serve stays
// decoupled from the graph package; *graph.Network implements it.
func (s *Session) Freeze(half bool) bool {
	f, ok := s.model.(interface{ Freeze(half bool) bool })
	return ok && f.Freeze(half)
}

// WeightBytes reports the model's resident weight footprint, or 0 when
// the model does not expose one.
func (s *Session) WeightBytes() int64 {
	if w, ok := s.model.(interface{ WeightBytes() int64 }); ok {
		return w.WeightBytes()
	}
	return 0
}
