// Package spanfix exercises spancheck: profiler spans that are (and are
// not) balanced by a matching End in the same function.
package spanfix

import "tbd/internal/prof"

// deferred is the standard idiom: clean.
func deferred() {
	sp := prof.Begin(prof.CatKernel, "k")
	defer sp.End()
}

// sequential reuses the variable after closing each phase: clean.
func sequential() {
	sp := prof.Begin(prof.CatPhase, "a")
	sp.End()
	sp = prof.Begin(prof.CatPhase, "b")
	sp.End()
}

// reassigned overwrites an open span: the first phase silently vanishes.
func reassigned() {
	sp := prof.Begin(prof.CatPhase, "a")
	sp = prof.Begin(prof.CatPhase, "b") // want "span sp reassigned while the span begun at line"
	sp.End()
}

// discarded drops the span: it can never be closed.
func discarded() {
	prof.Begin(prof.CatKernel, "x") // want "result of prof.Begin is discarded"
}

// neverClosed opens a span and falls off the end of the function.
func neverClosed() {
	sp := prof.Begin(prof.CatKernel, "y") // want "span sp is never closed"
	_ = sp
}

// escapes returns the span: the caller owns closing it.
func escapes() prof.Span {
	sp := prof.Begin(prof.CatKernel, "z")
	return sp
}

// beginChild is the Begin-with-parent idiom the train-step drivers use
// for explicit dependence edges: phases pinned to their step, each closed
// before the variable is reused, the parent closed last. Clean.
func beginChild() {
	step := prof.Begin(prof.CatPhase, "step")
	sp := prof.BeginChild(&step, prof.CatPhase, "phase.forward")
	sp.End()
	sp = prof.BeginChild(&step, prof.CatPhase, "phase.update")
	sp.End()
	step.End()
}

// beginChildDiscarded drops a child span even though its parent is
// balanced: the child can never be closed.
func beginChildDiscarded() {
	step := prof.Begin(prof.CatPhase, "step")
	defer step.End()
	prof.BeginChild(&step, prof.CatPhase, "phase.forward") // want "result of prof.Begin is discarded"
}

// beginChildReassigned overwrites an open child span: the first phase
// silently vanishes from its parent's lineage.
func beginChildReassigned() {
	step := prof.Begin(prof.CatPhase, "step")
	defer step.End()
	sp := prof.BeginChild(&step, prof.CatPhase, "a")
	sp = prof.BeginChild(&step, prof.CatPhase, "b") // want "span sp reassigned while the span begun at line"
	sp.End()
}

// beginLeafDiscarded drops a leaf span: it can never be closed.
func beginLeafDiscarded() {
	step := prof.Begin(prof.CatPhase, "step")
	defer step.End()
	prof.BeginLeaf(&step, prof.CatKernel, "im2col") // want "result of prof.Begin is discarded"
}

// beginLeafNeverClosed opens a leaf span and falls off the end of the
// function.
func beginLeafNeverClosed() {
	step := prof.Begin(prof.CatPhase, "step")
	defer step.End()
	sp := prof.BeginLeaf(&step, prof.CatKernel, "col2im") // want "span sp is never closed"
	_ = sp
}

// beginLeafEscapes returns the leaf span, as the convolution's lowering
// helper does: the caller owns closing it. Clean.
func beginLeafEscapes(parent *prof.Span) prof.Span {
	sp := prof.BeginLeaf(parent, prof.CatKernel, "im2col")
	return sp
}
