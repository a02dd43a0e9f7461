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

// Session is a frozen, forward-only inference session over a network.
// It carries no optimizer state and never stashes feature maps (all
// forwards run with train=false). A Session is not safe for concurrent
// use — the owning replica's runner serializes batches onto it.
type Session struct {
	model       Model
	sampleShape []int
	sampleLen   int
}

// NewSession freezes a model for inference. sampleShape is the shape of
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

// ShareWeightsFrom repoints this session's model parameters at src's
// backing storage, so the two sessions serve one weight snapshot (the
// fleet's replica-sharing primitive; see graph.Network.ShareParamsFrom).
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

// FreezeHalfWeights converts the model's fp16-capable weights to half
// storage (roughly halving the serving process's resident weight bytes)
// and reports whether the model supported it. Outputs shift within the
// weight quantization error — bit-identity with an unfrozen model is
// deliberately given up. Duck-typed so serve stays decoupled from the
// graph package; *graph.Network implements the method.
func (s *Session) FreezeHalfWeights() bool {
	f, ok := s.model.(interface{ FreezeHalfWeights() bool })
	return ok && f.FreezeHalfWeights()
}

// WeightBytes reports the model's resident weight footprint, or 0 when
// the model does not expose one.
func (s *Session) WeightBytes() int64 {
	if w, ok := s.model.(interface{ WeightBytes() int64 }); ok {
		return w.WeightBytes()
	}
	return 0
}
