package analysis

import (
	"go/ast"
	"go/types"
	"sort"
)

// This file is phase 1 of the engine: before any analyzer runs, the
// driver builds a Program over every loaded package — a call graph keyed
// by qualified function name plus per-function effect summaries — so the
// phase-2 checkers can reason across call boundaries. Summaries are
// computed to a fixpoint (a wrapper around a wrapper still summarizes
// correctly) and are read-only during phase 2, which is what lets the
// driver check packages in parallel.

// FuncInfo is one declared function or method in the analyzed program.
type FuncInfo struct {
	Name string // qualified: path/to/pkg.Func or path/to/pkg.Type.Method
	Pkg  *Package
	Decl *ast.FuncDecl
}

// ParamEffect classifies what a function does with a pooled buffer
// passed as one of its parameters.
type ParamEffect uint8

const (
	// ParamBorrows: the parameter is only read (or passed on to other
	// borrowers). Ownership — and the release obligation — stays with
	// the caller.
	ParamBorrows ParamEffect = iota
	// ParamReleases: the function releases the parameter (directly or
	// through a releasing callee). A call counts as a release at the
	// call site, and releasing again afterwards is a double release.
	ParamReleases
	// ParamSinks: the parameter escapes — stored, returned, captured,
	// sent, or handed to a function the analyzer cannot see. Ownership
	// conservatively transfers and the caller's obligation is dropped.
	ParamSinks
)

// PoolSummary is one function's pooled-buffer effect summary.
type PoolSummary struct {
	// Effects has one entry per declared parameter (receivers excluded),
	// in declaration order. Flattened: multi-name fields ("a, b Type")
	// contribute one entry per name.
	Effects []ParamEffect
	// Variadic marks the last parameter as "...T"; arguments landing in
	// the variadic slot are treated as sinks regardless of its effect.
	Variadic bool
	// ReturnsAcquired marks functions that hand a fresh pool acquisition
	// back to the caller: calling one is itself an acquisition and the
	// caller inherits the release obligation.
	ReturnsAcquired bool
}

// Program is the phase-1 product: every function in the analyzed
// packages, indexed for cross-function lookups, with pool summaries
// computed to fixpoint.
type Program struct {
	Pkgs  []*Package
	Funcs map[string]*FuncInfo
	Pool  map[string]*PoolSummary

	// names holds Funcs' keys sorted, for deterministic iteration.
	names []string
}

// NewProgram indexes the packages and computes the summaries.
func NewProgram(pkgs []*Package) *Program {
	prog := &Program{
		Pkgs:  pkgs,
		Funcs: map[string]*FuncInfo{},
		Pool:  map[string]*PoolSummary{},
	}
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				fn, ok := pkg.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				name := qualifiedFuncName(fn)
				if name == "" {
					continue
				}
				prog.Funcs[name] = &FuncInfo{Name: name, Pkg: pkg, Decl: fd}
			}
		}
	}
	prog.names = make([]string, 0, len(prog.Funcs))
	for name := range prog.Funcs {
		prog.names = append(prog.names, name)
	}
	sort.Strings(prog.names)
	prog.computePoolSummaries()
	return prog
}

// ParamEffect resolves the effect a callee has on its i-th argument
// (receiver excluded). known is false when the callee is outside the
// analyzed program — the caller must then assume a conservative sink.
func (prog *Program) ParamEffect(callee string, i int) (eff ParamEffect, known bool) {
	sum, ok := prog.Pool[callee]
	if !ok {
		return ParamSinks, false
	}
	if sum.Variadic && i >= len(sum.Effects)-1 {
		return ParamSinks, true
	}
	if i < 0 || i >= len(sum.Effects) {
		return ParamSinks, true
	}
	return sum.Effects[i], true
}

// ReturnsAcquired reports whether calling the named function hands back
// a fresh pool acquisition.
func (prog *Program) ReturnsAcquired(callee string) bool {
	if poolAcquires[callee] {
		return true
	}
	sum, ok := prog.Pool[callee]
	return ok && sum.ReturnsAcquired
}

// computePoolSummaries iterates the per-function extraction until no
// summary changes. Effects only ever increase along the
// borrows < releases < sinks order and ReturnsAcquired only flips to
// true, so the iteration reaches the least fixpoint.
func (prog *Program) computePoolSummaries() {
	for _, name := range prog.names {
		fi := prog.Funcs[name]
		prog.Pool[name] = &PoolSummary{
			Effects:  make([]ParamEffect, len(paramObjects(fi))),
			Variadic: isVariadic(fi.Decl),
		}
	}
	for changed := true; changed; {
		changed = false
		for _, name := range prog.names {
			if prog.summarizeFunc(prog.Funcs[name], prog.Pool[name]) {
				changed = true
			}
		}
	}
}

// paramObjects resolves the declared parameters (not the receiver) to
// their objects, in order; unnamed and blank parameters yield nil.
func paramObjects(fi *FuncInfo) []types.Object {
	var objs []types.Object
	if fi.Decl.Type.Params == nil {
		return objs
	}
	for _, field := range fi.Decl.Type.Params.List {
		if len(field.Names) == 0 {
			objs = append(objs, nil)
			continue
		}
		for _, name := range field.Names {
			if name.Name == "_" {
				objs = append(objs, nil)
				continue
			}
			objs = append(objs, fi.Pkg.Info.Defs[name])
		}
	}
	return objs
}

func isVariadic(fd *ast.FuncDecl) bool {
	params := fd.Type.Params
	if params == nil || len(params.List) == 0 {
		return false
	}
	_, ok := params.List[len(params.List)-1].Type.(*ast.Ellipsis)
	return ok
}

// summarizeFunc recomputes fi's summary from its body under the current
// summaries of its callees and reports whether anything grew.
func (prog *Program) summarizeFunc(fi *FuncInfo, sum *PoolSummary) bool {
	params := paramObjects(fi)
	byObj := map[types.Object]int{}
	for i, obj := range params {
		if obj != nil {
			byObj[obj] = i
		}
	}
	changed := false
	raise := func(i int, eff ParamEffect) {
		if i >= 0 && i < len(sum.Effects) && sum.Effects[i] < eff {
			sum.Effects[i] = eff
			changed = true
		}
	}
	paramIdx := func(e ast.Expr) int {
		if id, ok := ast.Unparen(e).(*ast.Ident); ok {
			if obj := fi.Pkg.objectOf(id); obj != nil {
				if i, ok := byObj[obj]; ok {
					return i
				}
			}
		}
		return -1
	}

	// acquired tracks locals bound to fresh pool acquisitions, for the
	// ReturnsAcquired scan.
	acquired := map[types.Object]bool{}
	// inline holds function literals passed straight to a //tbd:sync-callback
	// callee: they have run to completion when the call returns, so what
	// they do with a parameter is what this function does with it.
	inline := map[*ast.FuncLit]bool{}

	ast.Inspect(fi.Decl.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			if inline[n] {
				return true
			}
			// A parameter captured by a closure escapes.
			for i, obj := range params {
				if obj != nil && fi.Pkg.mentions(n, obj) {
					raise(i, ParamSinks)
				}
			}
			return false
		case *ast.CompositeLit:
			for i, obj := range params {
				if obj != nil && fi.Pkg.mentions(n, obj) {
					raise(i, ParamSinks)
				}
			}
			return true
		case *ast.AssignStmt:
			// A parameter assigned anywhere (aliased, stashed, stored in a
			// container) escapes. The acquisition scan rides along.
			for ri, rhs := range n.Rhs {
				if i := paramIdx(rhs); i >= 0 {
					raise(i, ParamSinks)
				}
				if call, ok := ast.Unparen(rhs).(*ast.CallExpr); ok && prog.ReturnsAcquired(fi.Pkg.calleeName(call)) {
					if len(n.Lhs) == len(n.Rhs) {
						if id, ok := ast.Unparen(n.Lhs[ri]).(*ast.Ident); ok && id.Name != "_" {
							if obj := fi.Pkg.objectOf(id); obj != nil {
								acquired[obj] = true
							}
						}
					}
				}
			}
			return true
		case *ast.SendStmt:
			if i := paramIdx(n.Value); i >= 0 {
				raise(i, ParamSinks)
			}
			return true
		case *ast.ReturnStmt:
			for _, res := range n.Results {
				if i := paramIdx(res); i >= 0 {
					raise(i, ParamSinks)
				}
				if call, ok := ast.Unparen(res).(*ast.CallExpr); ok && prog.ReturnsAcquired(fi.Pkg.calleeName(call)) {
					if !sum.ReturnsAcquired {
						sum.ReturnsAcquired = true
						changed = true
					}
				}
				if id, ok := ast.Unparen(res).(*ast.Ident); ok {
					if obj := fi.Pkg.objectOf(id); obj != nil && acquired[obj] && !sum.ReturnsAcquired {
						sum.ReturnsAcquired = true
						changed = true
					}
				}
			}
			return true
		case *ast.CallExpr:
			name := fi.Pkg.calleeName(n)
			if callee := prog.Funcs[name]; callee != nil && FuncEscape(callee.Decl, "sync-callback") {
				for _, arg := range n.Args {
					if lit, ok := ast.Unparen(arg).(*ast.FuncLit); ok {
						inline[lit] = true
					}
				}
			}
			// Direct release of a parameter: v.Release() / putPackBuf(v).
			if poolReleaseMethods[name] {
				if sel, ok := ast.Unparen(n.Fun).(*ast.SelectorExpr); ok {
					if i := paramIdx(sel.X); i >= 0 {
						raise(i, ParamReleases)
					}
				}
				return true
			}
			if poolReleaseFuncs[name] && len(n.Args) > 0 {
				if i := paramIdx(n.Args[0]); i >= 0 {
					raise(i, ParamReleases)
				}
				return true
			}
			// A parameter forwarded to another call inherits the callee's
			// effect; unknown callees are conservative sinks.
			for ai, arg := range n.Args {
				i := paramIdx(arg)
				if i < 0 {
					continue
				}
				eff, known := prog.ParamEffect(name, ai)
				if !known {
					raise(i, ParamSinks)
				} else if eff != ParamBorrows {
					raise(i, eff)
				}
			}
			return true
		}
		return true
	})
	return changed
}
