package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Poolcheck enforces the engine's one-step pooled-buffer lifetime
// contract (documented on layers.Layer and tensor.Release): every
// buffer taken from the tensor pool must, within the acquiring
// function, be released, returned to the caller, or stashed into a
// struct field that recycles its previous occupant. It also flags
// double releases and acquisitions whose result is discarded outright.
//
// The analysis is per-function and path-aware for straight-line code,
// if/else, switch, and loops: a Release that only happens on one branch
// while another branch returns leaks the buffer and is reported. Three
// resolutions silence it:
//
//   - v.Release() (or putPackBuf(v) for pack scratch) on every path,
//     including via defer;
//   - returning the buffer (ownership transfers to the caller per the
//     one-step contract);
//   - stashing it into a field, provided the same function released that
//     field's previous buffer first (the recycle idiom:
//     "l.out.Release(); ...; l.out = out"), or the stash carries a
//     //tbd:retain annotation naming the site that releases it.
//
// The check is interprocedural through the phase-1 summaries: a call to
// a function that RETURNS a fresh acquisition is itself an acquisition
// (leak-through-callee); a call passing the buffer to a function that
// RELEASES its parameter counts as a release at the call site (and
// releasing again afterwards is a double release); a call to a function
// that merely BORROWS its parameter leaves the obligation with the
// caller — so an acquisition written inline as the argument of a borrower
// is a finding outright: no variable is left to release. Only buffers
// passed to functions outside the analyzed program — or to summarized
// sinks (stores, returns, captures) — transfer ownership conservatively,
// as does storing in a container or capturing in a closure locally. A
// closure handed to a function whose doc carries //tbd:sync-callback has
// finished when that call returns and is summarized as part of the
// function that wrote it.
var Poolcheck = &Analyzer{
	Name: "poolcheck",
	Doc:  "pooled tensor/pack buffers must be released, returned, or stashed with recycle on every path",
	Run:  runPoolcheck,
}

// poolAcquires are the pool entry points whose results carry ownership.
var poolAcquires = map[string]bool{
	"tbd/internal/tensor.Acquire":      true,
	"tbd/internal/tensor.AcquireDirty": true,
	"tbd/internal/tensor.acquireDirty": true,
	"tbd/internal/tensor.getPackBuf":   true,
	"tbd/internal/tensor.Pool.Get":     true,
	"tbd/internal/tensor.Pool.get":     true,
	"tbd/internal/tensor.Pool.getPack": true,
}

// poolReleaseMethods release their receiver; poolReleaseFuncs release
// their first argument.
var poolReleaseMethods = map[string]bool{
	"tbd/internal/tensor.Tensor.Release": true,
}
var poolReleaseFuncs = map[string]bool{
	"tbd/internal/tensor.putPackBuf":   true,
	"tbd/internal/tensor.Pool.put":     true,
	"tbd/internal/tensor.Pool.putPack": true,
}

// isPoolAcquire reports whether call hands back a fresh pooled buffer:
// a hard-coded pool entry point or (via the phase-1 summaries) any
// module function that returns an acquisition.
func (p *Pass) isPoolAcquire(call *ast.CallExpr) bool {
	name := p.calleeName(call)
	if poolAcquires[name] {
		return true
	}
	return p.Prog != nil && p.Prog.ReturnsAcquired(name)
}

func runPoolcheck(p *Pass) {
	p.funcBodies(func(decl *ast.FuncDecl, body *ast.BlockStmt) {
		pc := &poolChecker{pass: p, decl: decl}
		pc.collectFieldReleases(body)
		// Walk once per acquisition so each site gets its own path
		// verdict.
		for _, site := range pc.findAcquires(body) {
			pc.checkSite(body, site)
		}
	})
}

// acquireSite is one pool acquisition and how its result is bound.
type acquireSite struct {
	call *ast.CallExpr
	// v is the local the result is assigned to; nil when the result
	// flows directly (return/arg/stash) or is discarded.
	v types.Object
	// stash is the field lvalue for direct `x.f = Acquire(...)` form.
	stash ast.Expr
	// discarded marks `Acquire(...)` as a bare statement or `_ =`.
	discarded bool
}

type poolChecker struct {
	pass *Pass
	decl *ast.FuncDecl
	// fieldReleases maps a rendered selector chain ("l.out") to the
	// positions of `<chain>.Release()` calls in this function.
	fieldReleases map[string][]token.Pos
}

// collectFieldReleases records every `x.f.Release()` in the body so the
// stash rule can check "previous occupant released before the stash".
func (pc *poolChecker) collectFieldReleases(body *ast.BlockStmt) {
	pc.fieldReleases = map[string][]token.Pos{}
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || !poolReleaseMethods[pc.pass.calleeName(call)] {
			return true
		}
		if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
			if _, isSel := ast.Unparen(sel.X).(*ast.SelectorExpr); isSel {
				chain := types.ExprString(sel.X)
				pc.fieldReleases[chain] = append(pc.fieldReleases[chain], call.Pos())
			}
		}
		return true
	})
}

// findAcquires locates pool acquisitions in body (not descending into
// nested function literals — those are walked as their own bodies) and
// classifies each by the statement that binds its result.
func (pc *poolChecker) findAcquires(body *ast.BlockStmt) []acquireSite {
	var sites []acquireSite
	seen := map[*ast.CallExpr]bool{}
	classify := func(stmt ast.Stmt) {
		assign, ok := stmt.(*ast.AssignStmt)
		if ok && len(assign.Lhs) == len(assign.Rhs) {
			for i, rhs := range assign.Rhs {
				call, isCall := ast.Unparen(rhs).(*ast.CallExpr)
				if !isCall || !pc.pass.isPoolAcquire(call) {
					continue
				}
				seen[call] = true
				site := acquireSite{call: call}
				switch lhs := ast.Unparen(assign.Lhs[i]).(type) {
				case *ast.Ident:
					if lhs.Name == "_" {
						site.discarded = true
					} else {
						site.v = pc.pass.objectOf(lhs)
					}
				case *ast.SelectorExpr:
					site.stash = lhs
				default:
					// Index/deref lvalues: stored into a container the
					// analyzer cannot track; treated as a transfer.
					continue
				}
				sites = append(sites, site)
			}
		}
		if es, ok := stmt.(*ast.ExprStmt); ok {
			if call, isCall := ast.Unparen(es.X).(*ast.CallExpr); isCall && pc.pass.isPoolAcquire(call) {
				seen[call] = true
				sites = append(sites, acquireSite{call: call, discarded: true})
			}
		}
	}
	var walk func(n ast.Node) bool
	walk = func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case ast.Stmt:
			classify(n)
		case *ast.CallExpr:
			// Any acquisition not bound by a statement above flows
			// directly (return value, call argument, composite literal
			// element): ownership transfers and no tracking is needed —
			// unless the receiving parameter only borrows.
			if pc.pass.isPoolAcquire(n) && !seen[n] {
				seen[n] = true
			}
			pc.checkInlineArgs(n)
		}
		return true
	}
	ast.Inspect(body, walk)
	return sites
}

// checkInlineArgs reports pool acquisitions written inline as arguments
// of call where the callee's summary only borrows that parameter.
func (pc *poolChecker) checkInlineArgs(call *ast.CallExpr) {
	if pc.pass.Prog == nil {
		return
	}
	callee := pc.pass.calleeName(call)
	for i, arg := range call.Args {
		inner, ok := ast.Unparen(arg).(*ast.CallExpr)
		if !ok || !pc.pass.isPoolAcquire(inner) {
			continue
		}
		if eff, known := pc.pass.Prog.ParamEffect(callee, i); !known || eff != ParamBorrows {
			continue
		}
		if pc.retained(inner.Pos()) {
			continue
		}
		pc.pass.Reportf(inner.Pos(), "pooled result of %s is passed inline to %s, which only borrows it: nothing is left to release (bind it to a variable and Release it)",
			shortName(pc.pass.calleeName(inner)), shortName(callee))
	}
}

// checkSite reports the site's defects: discarded results, stash without
// recycle, unreleased paths, and double releases.
func (pc *poolChecker) checkSite(body *ast.BlockStmt, site acquireSite) {
	name := pc.pass.calleeName(site.call)
	if site.discarded {
		pc.pass.Reportf(site.call.Pos(), "result of %s is discarded: the pooled buffer can never be released", shortName(name))
		return
	}
	if site.stash != nil {
		pc.checkStash(site.stash, site.call.Pos())
		return
	}
	if site.v == nil {
		return
	}
	w := &poolWalker{pc: pc, site: site}
	st := w.walkStmts(body.List, poolState{})
	if w.reported {
		return
	}
	if st.live && !st.terminated && st.resolved != resolvedAlways && !st.deferRel {
		pc.leakReport(site, "is not released, returned, or stashed")
	}
}

// checkStash enforces the recycle idiom on a field stash: the previous
// occupant must have been released earlier in the same function, or the
// stash must carry //tbd:retain.
func (pc *poolChecker) checkStash(lhs ast.Expr, pos token.Pos) {
	chain := types.ExprString(lhs)
	for _, rel := range pc.fieldReleases[chain] {
		if rel < pos {
			return
		}
	}
	if pc.retained(pos) {
		return
	}
	pc.pass.Reportf(pos, "pooled buffer stashed into %s without releasing the previous one (call %s.Release() first, or annotate //tbd:retain if it is released elsewhere)", chain, chain)
}

// retained reports whether the site at pos, or its whole function,
// carries //tbd:retain.
func (pc *poolChecker) retained(pos token.Pos) bool {
	_, ok := pc.pass.Escape(pos, "retain")
	return ok || FuncEscape(pc.decl, "retain")
}

func (pc *poolChecker) leakReport(site acquireSite, what string) {
	if pc.retained(site.call.Pos()) {
		return
	}
	name := "buffer"
	if site.v != nil {
		name = site.v.Name()
	}
	pc.pass.Reportf(site.call.Pos(), "pooled buffer %s %s on every path (missing Release; annotate //tbd:retain if retention is intended)", name, what)
}

// Resolution lattice for one tracked buffer.
const (
	resolvedNever uint8 = iota
	resolvedMaybe
	resolvedAlways
)

type poolState struct {
	live       bool // the acquire statement has executed
	resolved   uint8
	byRelease  bool // resolvedAlways was reached via an explicit release
	deferRel   bool // a deferred release covers every later exit
	terminated bool // control flow cannot reach past this point
}

// mergeBranch joins the states of two alternative paths.
func mergeBranch(a, b poolState) poolState {
	if a.terminated && b.terminated {
		return poolState{live: a.live || b.live, resolved: resolvedAlways, terminated: true}
	}
	if a.terminated {
		return b
	}
	if b.terminated {
		return a
	}
	// A path on which the acquisition never executed carries no
	// obligation; the live path's state is the whole story.
	if a.live && !b.live {
		return a
	}
	if b.live && !a.live {
		return b
	}
	out := poolState{live: a.live || b.live}
	switch {
	case a.resolved == resolvedAlways && b.resolved == resolvedAlways:
		out.resolved = resolvedAlways
	case a.resolved != resolvedNever || b.resolved != resolvedNever:
		out.resolved = resolvedMaybe
	}
	out.byRelease = a.byRelease && b.byRelease
	out.deferRel = a.deferRel && b.deferRel
	return out
}

// poolWalker walks one function body tracking one acquisition.
type poolWalker struct {
	pc       *poolChecker
	site     acquireSite
	reported bool
}

func (w *poolWalker) walkStmts(stmts []ast.Stmt, st poolState) poolState {
	for _, s := range stmts {
		st = w.walkStmt(s, st)
	}
	return st
}

func (w *poolWalker) walkStmt(stmt ast.Stmt, st poolState) poolState {
	if st.terminated {
		return st
	}
	switch s := stmt.(type) {
	case *ast.BlockStmt:
		return w.walkStmts(s.List, st)
	case *ast.LabeledStmt:
		return w.walkStmt(s.Stmt, st)
	case *ast.IfStmt:
		if s.Init != nil {
			st = w.walkStmt(s.Init, st)
		}
		st = w.scan(s.Cond, st)
		thenSt := w.walkStmts(s.Body.List, st)
		elseSt := st
		if s.Else != nil {
			elseSt = w.walkStmt(s.Else, st)
		}
		return mergeBranch(thenSt, elseSt)
	case *ast.ForStmt:
		if s.Init != nil {
			st = w.walkStmt(s.Init, st)
		}
		if s.Cond != nil {
			st = w.scan(s.Cond, st)
		}
		bodySt := w.walkStmts(s.Body.List, st)
		if s.Post != nil {
			bodySt = w.walkStmt(s.Post, bodySt)
		}
		return mergeLoop(st, bodySt)
	case *ast.RangeStmt:
		st = w.scan(s.X, st)
		return mergeLoop(st, w.walkStmts(s.Body.List, st))
	case *ast.SwitchStmt:
		if s.Init != nil {
			st = w.walkStmt(s.Init, st)
		}
		if s.Tag != nil {
			st = w.scan(s.Tag, st)
		}
		return w.walkClauses(s.Body, st)
	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			st = w.walkStmt(s.Init, st)
		}
		st = w.scanStmtExprs(s.Assign, st)
		return w.walkClauses(s.Body, st)
	case *ast.SelectStmt:
		return w.walkClauses(s.Body, st)
	case *ast.ReturnStmt:
		for _, r := range s.Results {
			st = w.scan(r, st)
		}
		if st.live && st.resolved != resolvedAlways && !st.deferRel {
			if returnMentions(s, w.pc.pass, w.site.v) {
				st.resolved = resolvedAlways
			} else if !w.reported {
				w.reported = true
				w.pc.leakReport(w.site, fmt.Sprintf("leaks on the return path at line %d",
					w.pc.pass.Pkg.Fset.Position(s.Pos()).Line))
			}
		}
		st.terminated = true
		return st
	case *ast.BranchStmt:
		st.terminated = true
		return st
	case *ast.DeferStmt:
		if w.isReleaseOfV(s.Call) || w.litMentionsV(s.Call) {
			st.deferRel = true
			if st.resolved != resolvedAlways {
				st.resolved = resolvedAlways
			}
			return st
		}
		return w.scan(s.Call, st)
	case *ast.ExprStmt:
		if call, ok := ast.Unparen(s.X).(*ast.CallExpr); ok {
			if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && id.Name == "panic" {
				st = w.scan(s.X, st)
				st.terminated = true
				return st
			}
		}
		return w.scan(s.X, st)
	default:
		return w.scanStmtExprs(stmt, st)
	}
}

// walkClauses handles switch/select bodies: every clause is an
// alternative path; without a default clause the untaken path keeps the
// pre-switch state.
func (w *poolWalker) walkClauses(body *ast.BlockStmt, st poolState) poolState {
	merged := poolState{terminated: true} // identity for mergeBranch
	hasDefault := false
	for _, c := range body.List {
		var stmts []ast.Stmt
		switch cc := c.(type) {
		case *ast.CaseClause:
			for _, e := range cc.List {
				st = w.scan(e, st)
			}
			if cc.List == nil {
				hasDefault = true
			}
			stmts = cc.Body
		case *ast.CommClause:
			clauseSt := st
			if cc.Comm != nil {
				clauseSt = w.walkStmt(cc.Comm, clauseSt)
			} else {
				hasDefault = true
			}
			merged = mergeBranch(merged, w.walkStmts(cc.Body, clauseSt))
			continue
		}
		merged = mergeBranch(merged, w.walkStmts(stmts, st))
	}
	if !hasDefault {
		merged = mergeBranch(merged, st)
	}
	return merged
}

// mergeLoop folds a may-execute loop body into the pre-loop state. An
// acquisition made inside the body carries a per-iteration obligation,
// so the body's own verdict stands; for a buffer acquired before the
// loop, a resolution inside the body is only a maybe.
func mergeLoop(pre, body poolState) poolState {
	if body.live && !pre.live {
		return body
	}
	out := pre
	out.live = pre.live || body.live
	if pre.resolved != resolvedAlways && body.resolved != resolvedNever {
		out.resolved = resolvedMaybe
	}
	return out
}

// scanStmtExprs applies the expression scan to every expression operand
// of a simple statement.
func (w *poolWalker) scanStmtExprs(stmt ast.Stmt, st poolState) poolState {
	switch s := stmt.(type) {
	case *ast.AssignStmt:
		for _, r := range s.Rhs {
			st = w.scan(r, st)
		}
		st = w.scanAssignLhs(s, st)
		return st
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, v := range vs.Values {
						st = w.scan(v, st)
					}
				}
			}
		}
		return st
	case *ast.SendStmt:
		st = w.scan(s.Chan, st)
		return w.scan(s.Value, st)
	case *ast.GoStmt:
		return w.scan(s.Call, st)
	case *ast.IncDecStmt:
		return w.scan(s.X, st)
	case *ast.ExprStmt:
		return w.scan(s.X, st)
	}
	return st
}

// scanAssignLhs handles the tracked buffer appearing on either side of
// an assignment: `w := v` aliases it (transfer), `x.f = v` stashes it,
// `v = ...` rebinds the name while the old buffer may still be live.
func (w *poolWalker) scanAssignLhs(s *ast.AssignStmt, st poolState) poolState {
	v := w.site.v
	if v == nil {
		return st
	}
	for i, lhs := range s.Lhs {
		lhs = ast.Unparen(lhs)
		var rhs ast.Expr
		if len(s.Lhs) == len(s.Rhs) {
			rhs = ast.Unparen(s.Rhs[i])
		}
		rhsIsV := false
		if id, ok := rhs.(*ast.Ident); ok && w.pc.pass.objectOf(id) == v {
			rhsIsV = true
		}
		switch l := lhs.(type) {
		case *ast.Ident:
			obj := w.pc.pass.objectOf(l)
			if call, ok := rhs.(*ast.CallExpr); ok && call == w.site.call {
				// The acquisition's own binding statement.
				continue
			}
			if obj == v && st.live && rhs != nil {
				// Rebinding the name while the original buffer is
				// unreleased: the buffer becomes unreachable.
				if st.resolved == resolvedNever && !w.reported {
					w.reported = true
					w.pc.leakReport(w.site, "is overwritten before being released")
				}
				st.resolved = resolvedAlways
			} else if obj != v && rhsIsV && st.live {
				// Aliased into another variable: conservatively a
				// transfer.
				st.resolved = resolvedAlways
			}
		case *ast.SelectorExpr:
			if rhsIsV && st.live {
				w.pc.checkStash(l, s.Pos())
				st.resolved = resolvedAlways
			}
		default:
			if rhsIsV && st.live {
				st.resolved = resolvedAlways
			}
		}
	}
	return st
}

// scan inspects one expression tree for events on the tracked buffer:
// the acquisition itself, releases (including double releases),
// ownership transfers into calls/literals/closures.
func (w *poolWalker) scan(expr ast.Expr, st poolState) poolState {
	if expr == nil {
		return st
	}
	v := w.site.v
	var visit func(n ast.Node) bool
	visit = func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			if v != nil && w.pc.pass.mentions(n, v) {
				// Captured by a closure: assume the closure manages it.
				st.resolved = resolvedAlways
				st.byRelease = false
			}
			return false
		case *ast.CallExpr:
			if n == w.site.call {
				st.live = true
				return true
			}
			if w.isReleaseOfV(n) {
				if st.live && st.resolved == resolvedAlways && st.byRelease && !w.reported {
					w.reported = true
					w.pc.pass.Reportf(n.Pos(), "double release of pooled buffer %s (already released on this path)", v.Name())
				}
				st.resolved = resolvedAlways
				st.byRelease = true
				return false
			}
			// v passed as a bare argument: the callee's summary decides.
			// A summarized borrower leaves the obligation here; a
			// summarized releaser was handled by isReleaseOfV above;
			// everything else (sinks, unknown callees) transfers
			// ownership conservatively.
			if v != nil {
				for i, arg := range n.Args {
					id, ok := ast.Unparen(arg).(*ast.Ident)
					if !ok || w.pc.pass.objectOf(id) != v {
						continue
					}
					if prog := w.pc.pass.Prog; prog != nil {
						if eff, known := prog.ParamEffect(w.pc.pass.calleeName(n), i); known && eff == ParamBorrows {
							continue
						}
					}
					st.resolved = resolvedAlways
					st.byRelease = false
				}
			}
			return true
		case *ast.CompositeLit:
			if v != nil && w.pc.pass.mentions(n, v) {
				st.resolved = resolvedAlways
				st.byRelease = false
			}
			return true
		}
		return true
	}
	ast.Inspect(expr, visit)
	return st
}

// isReleaseOfV reports whether call releases the tracked buffer: a
// Release method on it, a put-style function taking it as the first
// argument, or (via the phase-1 summaries) any module function whose
// parameter effect at the buffer's argument position is ParamReleases.
func (w *poolWalker) isReleaseOfV(call *ast.CallExpr) bool {
	v := w.site.v
	if v == nil {
		return false
	}
	name := w.pc.pass.calleeName(call)
	if poolReleaseMethods[name] {
		if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
			if id, ok := ast.Unparen(sel.X).(*ast.Ident); ok {
				return w.pc.pass.objectOf(id) == v
			}
		}
		return false
	}
	if poolReleaseFuncs[name] && len(call.Args) > 0 {
		if id, ok := ast.Unparen(call.Args[0]).(*ast.Ident); ok {
			return w.pc.pass.objectOf(id) == v
		}
	}
	if prog := w.pc.pass.Prog; prog != nil {
		for i, arg := range call.Args {
			if id, ok := ast.Unparen(arg).(*ast.Ident); ok && w.pc.pass.objectOf(id) == v {
				if eff, known := prog.ParamEffect(name, i); known && eff == ParamReleases {
					return true
				}
			}
		}
	}
	return false
}

// litMentionsV reports whether a deferred call's function literal or
// arguments capture the tracked buffer (a deferred closure releasing it).
func (w *poolWalker) litMentionsV(call *ast.CallExpr) bool {
	return w.site.v != nil && w.pc.pass.mentions(call, w.site.v)
}

func returnMentions(ret *ast.ReturnStmt, p *Pass, v types.Object) bool {
	if v == nil {
		return false
	}
	for _, r := range ret.Results {
		if p.mentions(r, v) {
			return true
		}
	}
	return false
}

func shortName(qualified string) string {
	if i := strings.LastIndexByte(qualified, '/'); i >= 0 {
		return qualified[i+1:]
	}
	return qualified
}
