package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// Spancheck keeps the profiler's span accounting balanced: every
// prof.Begin must reach a matching End() in the same function, either
// deferred or called directly before the span variable is reused. The
// engine's instrumented functions follow two idioms, both accepted:
//
//	sp := prof.Begin(prof.CatKernel, "gemm")
//	defer sp.End()
//
//	sp := prof.Begin(prof.CatPhase, "phase.forward")
//	... // forward
//	sp.End()
//	sp = prof.Begin(prof.CatPhase, "phase.loss") // reuse after End
//
// Reported defects: a Begin whose result is discarded (the span can
// never be closed), a span variable reassigned from a new Begin while
// the previous span is still open (the missing-End bug class: the
// orphaned span silently vanishes from phase totals), and a span still
// open when the function ends without a deferred End. Spans that escape
// the function (returned, stored in a struct, passed to a call) are
// assumed to be closed by their new owner.
var Spancheck = &Analyzer{
	Name: "spancheck",
	Doc:  "every prof span Begin must be closed by End (deferred or direct) in the same function",
	Run:  runSpancheck,
}

const profEndName = "tbd/internal/prof.Span.End"

// profBeginNames are the span-opening entry points. BeginChild is the
// Begin-with-parent idiom the train-step drivers use for explicit phase
// lineage (the what-if recorder's dependence edges), and BeginLeaf the
// same for a span that never becomes ambient (the convolution's
// per-image lowering); their balance rules are identical to Begin's.
var profBeginNames = map[string]bool{
	"tbd/internal/prof.Begin":      true,
	"tbd/internal/prof.BeginChild": true,
	"tbd/internal/prof.BeginLeaf":  true,
}

func runSpancheck(p *Pass) {
	p.funcBodies(func(decl *ast.FuncDecl, body *ast.BlockStmt) {
		sc := &spanChecker{pass: p, open: map[types.Object]token.Pos{}}
		sc.walkBody(body)
		for v, beginPos := range sc.open {
			if !sc.deferred[v] {
				p.Reportf(beginPos, "span %s is never closed: add defer %s.End() or call %s.End() before the function returns", v.Name(), v.Name(), v.Name())
			}
		}
	})
}

type spanChecker struct {
	pass *Pass
	// open maps a span variable to the position of its unclosed Begin.
	open map[types.Object]token.Pos
	// deferred marks variables covered by a deferred End (or a deferred
	// closure that calls End).
	deferred map[types.Object]bool
}

// walkBody visits the function's statements in source order — a
// positional (not path-sensitive) balance check, which matches how the
// engine writes spans: strictly sequential phases.
func (sc *spanChecker) walkBody(body *ast.BlockStmt) {
	sc.deferred = map[types.Object]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			// Nested literals are checked as their own bodies.
			return false
		case *ast.DeferStmt:
			sc.scanDefer(n)
			return false
		case *ast.AssignStmt:
			sc.scanAssign(n)
			return true
		case *ast.ExprStmt:
			if call, ok := ast.Unparen(n.X).(*ast.CallExpr); ok {
				name := sc.pass.calleeName(call)
				if profBeginNames[name] {
					sc.pass.Reportf(call.Pos(), "result of prof.Begin is discarded: the span can never be closed")
					return false
				}
				if name == profEndName {
					if v := sc.endReceiver(call); v != nil {
						delete(sc.open, v)
					}
					return false
				}
			}
			return true
		case *ast.ReturnStmt:
			// A returned span escapes to the caller.
			for v := range sc.open {
				if returnMentions(n, sc.pass, v) {
					delete(sc.open, v)
				}
			}
			return true
		case *ast.CallExpr:
			// A span passed as an argument escapes.
			for _, arg := range n.Args {
				if id, ok := ast.Unparen(arg).(*ast.Ident); ok {
					if v := sc.pass.objectOf(id); v != nil {
						delete(sc.open, v)
					}
				}
			}
			return true
		}
		return true
	})
}

// scanAssign handles `sp := prof.Begin(...)`, `sp = prof.Begin(...)`
// (reuse), and spans escaping into struct fields.
func (sc *spanChecker) scanAssign(s *ast.AssignStmt) {
	if len(s.Lhs) != len(s.Rhs) {
		return
	}
	for i, rhs := range s.Rhs {
		call, ok := ast.Unparen(rhs).(*ast.CallExpr)
		if !ok || !profBeginNames[sc.pass.calleeName(call)] {
			continue
		}
		switch lhs := ast.Unparen(s.Lhs[i]).(type) {
		case *ast.Ident:
			if lhs.Name == "_" {
				sc.pass.Reportf(call.Pos(), "result of prof.Begin is discarded: the span can never be closed")
				continue
			}
			v := sc.pass.objectOf(lhs)
			if v == nil {
				continue
			}
			if prev, isOpen := sc.open[v]; isOpen && !sc.deferred[v] {
				sc.pass.Reportf(call.Pos(), "span %s reassigned while the span begun at line %d is still open (missing %s.End())",
					v.Name(), sc.pass.Pkg.Fset.Position(prev).Line, v.Name())
			}
			sc.open[v] = call.Pos()
		default:
			// Stored into a field or container: escapes.
		}
	}
}

// scanDefer closes spans via `defer sp.End()` or a deferred closure
// that mentions an open span.
func (sc *spanChecker) scanDefer(d *ast.DeferStmt) {
	if sc.pass.calleeName(d.Call) == profEndName {
		if v := sc.endReceiver(d.Call); v != nil {
			sc.deferred[v] = true
			delete(sc.open, v)
		}
		return
	}
	for v := range sc.open {
		if sc.pass.mentions(d.Call, v) {
			sc.deferred[v] = true
			delete(sc.open, v)
		}
	}
}

// endReceiver resolves the variable in `v.End()`.
func (sc *spanChecker) endReceiver(call *ast.CallExpr) types.Object {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return nil
	}
	id, ok := ast.Unparen(sel.X).(*ast.Ident)
	if !ok {
		return nil
	}
	return sc.pass.objectOf(id)
}
