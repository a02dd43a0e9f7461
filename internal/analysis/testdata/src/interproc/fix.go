// Package interprocfix exercises poolcheck's phase-1 summaries: buffer
// obligations that flow through callees — acquire-wrappers, borrowing
// helpers, releasing helpers, and sinks.
package interprocfix

import "tbd/internal/tensor"

type holder struct {
	kept *tensor.Tensor
}

// acquireWrapped hands a fresh acquisition to its caller: calling it is
// itself an acquisition (ReturnsAcquired).
func acquireWrapped(n int) *tensor.Tensor {
	return tensor.Acquire(n)
}

// acquireDeep summarizes through one more layer of wrapping.
func acquireDeep(n int) *tensor.Tensor {
	return acquireWrapped(n)
}

// borrow only reads its argument: the caller keeps the obligation.
func borrow(t *tensor.Tensor) int {
	return t.Numel()
}

// releaseIt releases its argument (ParamReleases): a call counts as the
// caller's release.
func releaseIt(t *tensor.Tensor) {
	t.Release()
}

// releaseDeep releases through a releasing callee.
func releaseDeep(t *tensor.Tensor) {
	releaseIt(t)
}

// sinkIt stores its argument (ParamSinks): ownership transfers.
func sinkIt(h *holder, t *tensor.Tensor) {
	h.kept = t //tbd:retain the holder owns the buffer from here on
}

// leakThroughCallee: borrowing helpers do not discharge the obligation,
// so the early return leaks the wrapped acquisition.
func leakThroughCallee(cond bool) {
	t := acquireWrapped(4) // want "pooled buffer t leaks on the return path at line"
	borrow(t)
	if cond {
		return
	}
	t.Release()
}

// leakDeepWrapper: the acquisition is visible through two wrappers.
func leakDeepWrapper(cond bool) {
	t := acquireDeep(4) // want "pooled buffer t leaks on the return path at line"
	if cond {
		return
	}
	t.Release()
}

// releasedInCallee is clean: releaseIt discharges the obligation.
func releasedInCallee(n int) {
	t := tensor.Acquire(n)
	borrow(t)
	releaseIt(t)
}

// releasedInDeferredCallee is clean: the deferred releasing helper
// covers every exit.
func releasedInDeferredCallee(n int, cond bool) {
	t := acquireWrapped(n)
	defer releaseDeep(t)
	if cond {
		return
	}
	borrow(t)
}

// doubleReleaseAcrossCalls frees once through the helper and once
// directly.
func doubleReleaseAcrossCalls(n int) {
	t := tensor.Acquire(n)
	releaseIt(t)
	t.Release() // want "double release of pooled buffer t"
}

// doubleReleaseBothInCallees frees twice through releasing helpers.
func doubleReleaseBothInCallees(n int) {
	t := tensor.Acquire(n)
	releaseDeep(t)
	releaseIt(t) // want "double release of pooled buffer t"
}

// transferredToSink is clean: the sink takes ownership.
func transferredToSink(h *holder, n int) {
	t := acquireWrapped(n)
	sinkIt(h, t)
}

// retainedWrapped documents deliberate retention of a wrapped
// acquisition with the escape comment: clean.
func retainedWrapped(cond bool) {
	t := acquireWrapped(4) //tbd:retain freed by the teardown registry
	if cond {
		return
	}
	t.Release()
}

// inlineToBorrower writes the acquisition as the argument of a borrower:
// no variable is left to release it, through wrappers or not.
func inlineToBorrower(n int) {
	borrow(tensor.Acquire(n)) // want "pooled result of tensor.Acquire is passed inline to interproc.borrow, which only borrows it"
	borrow(acquireDeep(n))    // want "pooled result of interproc.acquireDeep is passed inline to interproc.borrow"
}

// inlineElsewhere is clean: a releaser frees the inline buffer and a sink
// takes ownership of it.
func inlineElsewhere(h *holder, n int) {
	releaseIt(tensor.Acquire(n))
	sinkIt(h, acquireWrapped(n))
}

// inlineRetained documents a deliberate inline hand-off: clean.
func inlineRetained(n int) {
	borrow(tensor.Acquire(n)) //tbd:retain the buffer is left to the garbage collector on purpose
}

// each runs fn to completion before it returns.
//
//tbd:sync-callback plain loop, fn is never stored
func each(n int, fn func(i int)) {
	for i := 0; i < n; i++ {
		fn(i)
	}
}

// pending holds closures for a later caller to run.
var pending []func()

// later keeps fn: a closure handed to it escapes.
func later(fn func()) {
	pending = append(pending, fn)
}

// sumInCallback only reads t, inside a closure that has finished when
// each returns: still a borrow.
func sumInCallback(t *tensor.Tensor) float32 {
	var s float32
	each(t.Numel(), func(i int) { s += t.Data()[i] })
	return s
}

// readLater captures t in a closure nothing vouches for: a sink.
func readLater(t *tensor.Tensor) {
	later(func() { _ = t.Numel() })
}

// inlineThroughCallbacks: the sync-callback borrower is a finding, the
// capturing one is not.
func inlineThroughCallbacks(n int) {
	sumInCallback(tensor.Acquire(n)) // want "passed inline to interproc.sumInCallback, which only borrows it"
	readLater(tensor.Acquire(n))
}
