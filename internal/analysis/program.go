package analysis

import (
	"go/ast"
	"go/token"
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

	// unused holds the unused analyzer's findings per package path.
	unused map[string][]unusedFinding

	// names holds Funcs' keys sorted, for deterministic iteration.
	names []string
}

// NewProgram indexes the packages and computes the summaries.
func NewProgram(pkgs []*Package) *Program {
	prog := &Program{
		Pkgs:  pkgs,
		Funcs: map[string]*FuncInfo{},
		Pool:  map[string]*PoolSummary{},

		unused: map[string][]unusedFinding{},
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
	prog.computeUnused()
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

// lend records in lent the struct literals written straight into call's
// arguments when the callee's doc carries //tbd:sync-callback: it has run
// and let go of everything handed to it by the time it returns, so such a
// literal hands on only what the callbacks passed in the same call do with
// its fields. Each literal maps to those effects by field name ("" for the
// whole record).
func (prog *Program) lend(lent map[*ast.CompositeLit]map[string]ParamEffect, pkg *Package, call *ast.CallExpr, callee string) {
	if fi := prog.Funcs[callee]; fi == nil || !FuncEscape(fi.Decl, "sync-callback") {
		return
	}
	for _, arg := range call.Args {
		lit, ok := ast.Unparen(arg).(*ast.CompositeLit)
		if !ok {
			continue
		}
		typ := pkg.Info.TypeOf(lit)
		if _, ok := typ.Underlying().(*types.Struct); !ok {
			continue
		}
		fields := map[string]ParamEffect{}
		for _, body := range call.Args {
			prog.bodyEffects(fields, pkg, body, typ)
		}
		lent[lit] = fields
	}
}

// bodyEffects adds to fields what the callback body does with a record of
// type typ it is handed. A body that takes no such record sees none; one
// that is not a function declared in the program (a closure, a func
// value) is not vouched for, and the whole record sinks.
func (prog *Program) bodyEffects(fields map[string]ParamEffect, pkg *Package, body ast.Expr, typ types.Type) {
	sig, ok := pkg.Info.TypeOf(body).Underlying().(*types.Signature)
	if !ok {
		return
	}
	j := -1
	for i := 0; i < sig.Params().Len() && j < 0; i++ {
		if types.Identical(sig.Params().At(i).Type(), typ) {
			j = i
		}
	}
	if j < 0 {
		return
	}
	var id *ast.Ident
	switch b := ast.Unparen(body).(type) {
	case *ast.Ident:
		id = b
	case *ast.SelectorExpr:
		id = b.Sel
	}
	var fi *FuncInfo
	if fn, ok := pkg.Info.Uses[id].(*types.Func); id != nil && ok {
		fi = prog.Funcs[qualifiedFuncName(fn)]
	}
	if fi == nil {
		fields[""] = ParamSinks
		return
	}
	prog.recordEffects(fields, fi, j, map[*FuncInfo]bool{})
}

// recordEffects adds to fields what fi does with the fields of its j-th
// parameter, a record passed by value. A field, or a local unpacked from
// one, that is released is a release; one stored, returned, sent,
// captured or put in another literal is a sink; one handed to a
// summarized callee takes that callee's effect. The record handed whole
// to a function in the program is followed into it, and anywhere else it
// sinks. A field handed to a function outside the program (assembly, the
// standard library, a builtin) is taken as read: kernel bodies do that on
// every call.
func (prog *Program) recordEffects(fields map[string]ParamEffect, fi *FuncInfo, j int, seen map[*FuncInfo]bool) {
	params := paramObjects(fi)
	if seen[fi] || j >= len(params) || params[j] == nil {
		return
	}
	seen[fi] = true
	pkg, rec := fi.Pkg, params[j]
	alias := map[types.Object]string{}
	raise := func(f string, eff ParamEffect) {
		if fields[f] < eff {
			fields[f] = eff
		}
	}
	// field names the record field e reads: r.f, r.f.g, r.f[lo:hi], &r.f
	// or a local unpacked from one; "" is the record itself.
	field := func(e ast.Expr) (string, bool) {
		for {
			switch x := ast.Unparen(e).(type) {
			case *ast.SliceExpr:
				e = x.X
			case *ast.UnaryExpr:
				if x.Op != token.AND {
					return "", false
				}
				e = x.X
			case *ast.SelectorExpr:
				if id, ok := ast.Unparen(x.X).(*ast.Ident); ok && pkg.objectOf(id) == rec {
					return x.Sel.Name, true
				}
				e = x.X
			case *ast.Ident:
				obj := pkg.objectOf(x)
				if obj == rec {
					return "", true
				}
				f, ok := alias[obj]
				return f, ok
			default:
				return "", false
			}
		}
	}
	ast.Inspect(fi.Decl.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			for obj, f := range alias {
				if pkg.mentions(n, obj) {
					raise(f, ParamSinks)
				}
			}
			if pkg.mentions(n, rec) {
				raise("", ParamSinks)
			}
			return false
		case *ast.AssignStmt:
			for i, rhs := range n.Rhs {
				f, ok := field(rhs)
				if !ok {
					continue
				}
				if len(n.Lhs) == len(n.Rhs) {
					if id, ok := n.Lhs[i].(*ast.Ident); ok && id.Name == "_" {
						continue
					} else if ok && n.Tok == token.DEFINE && pkg.Info.Defs[id] != nil {
						alias[pkg.Info.Defs[id]] = f
						continue
					}
				}
				raise(f, ParamSinks)
			}
		case *ast.ValueSpec:
			for i, val := range n.Values {
				if f, ok := field(val); ok && i < len(n.Names) && pkg.Info.Defs[n.Names[i]] != nil {
					alias[pkg.Info.Defs[n.Names[i]]] = f
				}
			}
		case *ast.SendStmt:
			if f, ok := field(n.Value); ok {
				raise(f, ParamSinks)
			}
		case *ast.ReturnStmt:
			for _, res := range n.Results {
				if f, ok := field(res); ok {
					raise(f, ParamSinks)
				}
			}
		case *ast.CompositeLit:
			for _, elt := range n.Elts {
				if kv, ok := elt.(*ast.KeyValueExpr); ok {
					elt = kv.Value
				}
				if f, ok := field(elt); ok {
					raise(f, ParamSinks)
				}
			}
		case *ast.CallExpr:
			name := pkg.calleeName(n)
			if poolReleaseMethods[name] {
				if sel, ok := ast.Unparen(n.Fun).(*ast.SelectorExpr); ok {
					if f, ok := field(sel.X); ok {
						raise(f, ParamReleases)
					}
				}
				return true
			}
			if poolReleaseFuncs[name] && len(n.Args) > 0 {
				if f, ok := field(n.Args[0]); ok {
					raise(f, ParamReleases)
				}
				return true
			}
			for ai, arg := range n.Args {
				f, ok := field(arg)
				switch {
				case !ok:
				case f != "":
					if eff, known := prog.ParamEffect(name, ai); known {
						raise(f, eff)
					}
				case prog.Funcs[name] != nil:
					prog.recordEffects(fields, prog.Funcs[name], ai, seen)
				default:
					raise("", ParamSinks)
				}
			}
		}
		return true
	})
}

// lentEffect is what a sync-callback call does to obj through lit, a
// literal lend recorded with fields: the strongest effect among the
// fields whose values name obj.
func (pkg *Package) lentEffect(lit *ast.CompositeLit, fields map[string]ParamEffect, obj types.Object) ParamEffect {
	st, _ := pkg.Info.TypeOf(lit).Underlying().(*types.Struct)
	eff := ParamBorrows
	for i, elt := range lit.Elts {
		name := ""
		if kv, ok := elt.(*ast.KeyValueExpr); ok {
			if id, ok := kv.Key.(*ast.Ident); ok {
				name = id.Name
			}
			elt = kv.Value
		} else if st != nil && i < st.NumFields() {
			name = st.Field(i).Name()
		}
		if pkg.mentions(elt, obj) {
			eff = max(eff, fields[name], fields[""])
		}
	}
	return eff
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
	// lent holds struct literals passed straight to a sync-callback
	// callee: a parameter one names takes what the callbacks do with it.
	lent := map[*ast.CompositeLit]map[string]ParamEffect{}

	ast.Inspect(fi.Decl.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			// A parameter captured by a closure escapes.
			for i, obj := range params {
				if obj != nil && fi.Pkg.mentions(n, obj) {
					raise(i, ParamSinks)
				}
			}
			return false
		case *ast.CompositeLit:
			fields, isLent := lent[n]
			for i, obj := range params {
				if obj == nil || !fi.Pkg.mentions(n, obj) {
					continue
				}
				if isLent {
					raise(i, fi.Pkg.lentEffect(n, fields, obj))
				} else {
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
			prog.lend(lent, fi.Pkg, n, name)
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
