package tensor

import (
	"fmt"
	"os"
	"sync"
	"sync/atomic"

	"tbd/internal/prof"
)

// Runtime GEMM kernel-tier dispatch. Three tiers exist:
//
//	ref   pure-Go 4x4 kernels — the bit-exact reference, available
//	      everywhere.
//	sse   4x4 SSE assembly — bit-identical to ref (same per-lane
//	      expressions, no FMA), amd64 only.
//	avx2  8x8 AVX2+FMA assembly — roughly 2-3x the sse throughput, but
//	      FMA fuses the multiply-add rounding, so results are only
//	      ULP-equivalent to ref, not bit-identical (see gemmFMAMaxULP).
//
// The default is the widest tier CPUID says the host supports. Within a
// tier results stay deterministic: the reduction order of every output
// element depends only on the operand shapes, never on the worker split,
// so parallel and serial runs of the same tier produce identical bits.
//
// The TBD_GEMM_KERNEL environment variable (ref|sse|avx2) overrides the
// default at startup; SetGemmKernelTier changes it at runtime. Reading
// an environment variable is deterministic per process, so the override
// does not violate the hot-path determinism contract enforced by tbdvet.

// gemmTier enumerates the micro-kernel implementations.
type gemmTier int32

const (
	tierRef gemmTier = iota
	tierSSE
	tierAVX2
)

var tierNames = [...]string{tierRef: "ref", tierSSE: "sse", tierAVX2: "avx2"}

// gemmFMAMaxULP is the documented equivalence bound for the avx2 tier: on
// the test shapes (k <= 1024, standard-normal operands) every output
// element lands within this many representable float32s of the reference
// tier's value, except where cancellation leaves the result near zero —
// there the absolute difference stays below gemmFMAAbsTol. Among elements
// whose absolute difference exceeds that tolerance the observed worst case
// is 29 ULP at k = 515 and 71 ULP at k = 1024 (the absolute difference
// itself grows as sqrt(k): 1.3e-4 to 2.2e-4); the margin absorbs unlucky
// seeds. The wide driver's k-blocking does not enter: it reproduces the
// unblocked chain bit for bit (gemm_wide.go). Both constants are asserted
// by TestAVX2TierMatchesRefULP and TestBlockedGemmBoundaries.
//
//tbd:api the avx2 tolerance contract TestAVX2TierMatchesRefULP and TestBlockedGemmBoundaries assert
const (
	gemmFMAMaxULP = 512
	gemmFMAAbsTol = 1e-4
)

var (
	tierOnce   sync.Once
	activeTier atomic.Int32

	// Capability flags, written only during package init (amd64 build
	// files) and read after, so they need no synchronization.
	haveSSEKernels  bool // SSE 4x4 assembly installed
	haveAVX2Kernels bool // AVX2+FMA 8x8 assembly installed and CPU-supported
	haveF16CKernels bool // fp16-widening AVX2 kernel usable (F16C present)
)

// initGemmTier picks the startup tier: the widest available, unless
// TBD_GEMM_KERNEL names a different supported tier.
func initGemmTier() {
	best := tierRef
	if haveSSEKernels {
		best = tierSSE
	}
	if haveAVX2Kernels {
		best = tierAVX2
	}
	if env := os.Getenv("TBD_GEMM_KERNEL"); env != "" {
		if t, ok := tierByName(env); ok && tierAvailable(t) {
			best = t
		} else {
			fmt.Fprintf(os.Stderr, "tensor: TBD_GEMM_KERNEL=%q unknown or unsupported on this CPU, using %q\n", env, tierNames[best])
		}
	}
	installTier(best)
}

func installTier(t gemmTier) {
	activeTier.Store(int32(t))
	prof.SetKernelTier(tierNames[t])
}

// currentGemmTier returns the active tier, initializing the default on
// first use (after package init, so the capability flags are final).
func currentGemmTier() gemmTier {
	tierOnce.Do(initGemmTier)
	return gemmTier(activeTier.Load())
}

func tierByName(name string) (gemmTier, bool) {
	for t, n := range tierNames {
		if n == name {
			return gemmTier(t), true
		}
	}
	return tierRef, false
}

func tierAvailable(t gemmTier) bool {
	switch t {
	case tierSSE:
		return haveSSEKernels
	case tierAVX2:
		return haveAVX2Kernels
	}
	return true
}

// kernels4x4 selects the 4x4 micro-kernel pair for a tier: the pure-Go
// reference kernels for tierRef, the installed assembly otherwise. The
// avx2 tier also lands here for shapes too narrow for 8x8 tiles; the 4x4
// assembly is bit-identical to ref, so those shapes stay exact even under
// the FMA tier.
func kernels4x4(t gemmTier) (tree, seq microFn) {
	if t == tierRef {
		return microTree4x4Go, microSeq4x4Go
	}
	return kernelTree4x4, kernelSeq4x4
}

// SetGemmKernelTier selects the GEMM micro-kernel tier by name ("ref",
// "sse", "avx2") and returns the name of the previously active tier.
// Unknown or CPU-unsupported names return an error and change nothing.
// Safe to call concurrently with running ops: each GEMM reads the tier
// once at entry, so an in-flight call uses one tier throughout.
//
//tbd:api tier knob: tests pin hashes and bit-identity under every tier
func SetGemmKernelTier(name string) (prev string, err error) {
	tierOnce.Do(initGemmTier)
	prev = tierNames[gemmTier(activeTier.Load())]
	t, ok := tierByName(name)
	if !ok {
		return prev, fmt.Errorf("tensor: unknown GEMM kernel tier %q (have ref, sse, avx2)", name)
	}
	if !tierAvailable(t) {
		return prev, fmt.Errorf("tensor: GEMM kernel tier %q not supported on this CPU", name)
	}
	installTier(t)
	return prev, nil
}

// GemmKernelTier returns the name of the active micro-kernel tier.
func GemmKernelTier() string {
	return tierNames[currentGemmTier()]
}

// GemmKernelTiers lists the tiers this process can run, widest last.
//
//tbd:api tier knob: the per-tier tests and benchmarks iterate what the host runs
func GemmKernelTiers() []string {
	tierOnce.Do(initGemmTier)
	out := []string{"ref"}
	if haveSSEKernels {
		out = append(out, "sse")
	}
	if haveAVX2Kernels {
		out = append(out, "avx2")
	}
	return out
}

// BitExactGemmTier returns the fastest tier that keeps the reference
// bit-identity contract: "sse" when the assembly is present, else "ref".
// Tests that assert exact equality across code paths pin this tier.
//
//tbd:api tier knob: the exact-equality tests pin this tier
func BitExactGemmTier() string {
	if haveSSEKernels {
		return "sse"
	}
	return "ref"
}

// GemmHalfFast reports whether an fp16 FrozenMatrix runs off its panel
// on the in-register widening AVX2 kernel (F16C); otherwise each GEMM
// unpacks it into a pooled fp32 matrix first.
func GemmHalfFast() bool {
	return haveF16CKernels && currentGemmTier() == tierAVX2
}
