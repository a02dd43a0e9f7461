package analysis

import (
	"bytes"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strconv"
	"strings"
)

// Unused reports package-level declarations nothing needs. Phase 1
// builds a reachability graph over every package-level func, method,
// type, var and const of the loaded (non-test) files, keyed by qualified
// name so cross-package uses resolved from export data meet their
// declarations; an edge is an identifier use inside a declaration. The
// loaded packages are taken to be the whole program, so run it over
// ./....
//
// Program roots are main in every main package, every init, every blank
// declaration, every package-level var whose initializer calls something,
// the exported API of the root package tbd, and any name mentioned by a
// file that build constraints exclude on this host (so another GOARCH's
// build cannot lose a symbol). A method is reached when it is named (a
// call, a method value, an embedding's promotion), and also when its
// receiver type is reached and implements an interface the program uses
// that has the method, or carries a name the standard library looks up
// dynamically (String, Error, MarshalJSON, ...). Where unsure, it keeps
// the method. Body-less (assembly) declarations are ordinary nodes.
//
// Test roots are every declaration of the in-package and external
// _test.go files. Two classes of finding follow:
//
//   - reached by no program root and no test: delete it. No escape.
//   - reached only from tests: delete it with the tests that only test
//     it, move it into the test file, or annotate //tbd:api <why> on the
//     declaration (or on the package clause, for a package that exists
//     as a test oracle) naming the invariant its test pins. An escaped
//     declaration is a root, so what it reaches is not reported again,
//     and an escaped type covers its methods; an empty justification is
//     itself a finding.
var Unused = &Analyzer{
	Name: "unused",
	Doc:  "every package-level declaration is reached from a main, an init, a var initializer, the root package's API or (escaped //tbd:api) a test",
	Run:  runUnused,
}

func runUnused(p *Pass) {
	for _, f := range p.Prog.unused[p.Pkg.Path] {
		p.Reportf(f.pos, "%s", f.msg)
	}
}

// apiRoot is the module's root package: its exported API is public.
const apiRoot = "tbd"

// dynamicMethods are method names the standard library finds by
// interface assertion on an any (fmt, errors, encoding/*): a reached
// type keeps them without a visible conversion.
var dynamicMethods = map[string]bool{
	"String": true, "GoString": true, "Format": true, "Error": true,
	"Unwrap": true, "Is": true, "As": true,
	"MarshalJSON": true, "UnmarshalJSON": true, "MarshalText": true, "UnmarshalText": true,
	"MarshalBinary": true, "UnmarshalBinary": true, "GobEncode": true, "GobDecode": true,
}

type unusedFinding struct {
	pos token.Pos
	msg string
}

// reachNode is one package-level declaration.
type reachNode struct {
	label string // "func F", "method T.M", "type T", ...
	pkg   *Package
	pos   token.Pos
	named *types.Named // type declarations: the declared type
	api   bool         // carries //tbd:api, itself or on its package
}

// computeUnused builds the reachability graph and records the findings
// per package.
func (prog *Program) computeUnused() {
	nodes := map[string]*reachNode{}
	edges := map[string][]string{}
	var progRoots, testRoots []string
	root := func(roots *[]string, key string, info *types.Info, n ast.Node) {
		*roots = append(*roots, key)
		edges[key] = append(edges[key], uses(info, n)...)
	}
	report := func(pkg *Package, pos token.Pos, msg string) {
		prog.unused[pkg.Path] = append(prog.unused[pkg.Path], unusedFinding{pos, msg})
	}
	ifaces := map[string][]ifaceMethod{}
	visited := map[types.Type]bool{}

	for _, pkg := range prog.Pkgs {
		// Names a build-excluded file mentions stay: same-package
		// declarations by name, other packages' through its imports.
		mentioned := map[string]bool{}
		for _, f := range pkg.excluded {
			imports := map[string]string{}
			for _, is := range f.Imports {
				path, _ := strconv.Unquote(is.Path.Value)
				name := path[strings.LastIndex(path, "/")+1:]
				if is.Name != nil {
					name = is.Name.Name
				}
				imports[name] = path
			}
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.Ident:
					mentioned[n.Name] = true
				case *ast.SelectorExpr:
					if x, ok := n.X.(*ast.Ident); ok && imports[x.Name] != "" {
						progRoots = append(progRoots, imports[x.Name]+"."+n.Sel.Name)
					}
				}
				return true
			})
		}
		pkgAPI := false
		for _, f := range pkg.Files {
			if why, ok := docEscape("api", f.Doc); ok {
				pkgAPI = true
				if why == "" {
					report(pkg, f.Package, "//tbd:api on package "+pkg.Types.Name()+" needs a justification (which invariant do its tests pin?)")
				}
			}
		}
		add := func(key, label string, name *ast.Ident, n ast.Node, docs ...*ast.CommentGroup) *reachNode {
			node := &reachNode{label: label, pkg: pkg, pos: name.Pos(), api: pkgAPI}
			if why, ok := docEscape("api", docs...); ok {
				node.api = true
				if why == "" {
					report(pkg, name.Pos(), "//tbd:api on "+label+" needs a justification (which invariant does its test pin?)")
				}
			}
			nodes[key] = node
			edges[key] = append(edges[key], uses(pkg.Info, n)...)
			if mentioned[name.Name] || (pkg.Path == apiRoot && apiExported(key)) ||
				(pkg.Types.Name() == "main" && key == pkg.Path+".main") {
				progRoots = append(progRoots, key)
			}
			return node
		}
		collectIfaces(pkg.Info, ifaces, visited)
		for _, f := range pkg.Files {
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					key := qualifiedFuncName(pkg.Info.Defs[d.Name].(*types.Func))
					switch {
					case d.Recv == nil && (d.Name.Name == "init" || d.Name.Name == "_"):
						root(&progRoots, key, pkg.Info, d)
					case d.Recv == nil:
						add(key, "func "+d.Name.Name, d.Name, d, d.Doc)
					case key != "":
						add(key, "method "+strings.TrimPrefix(key, pkg.Path+"."), d.Name, d, d.Doc)
					}
				case *ast.GenDecl:
					for _, spec := range d.Specs {
						switch s := spec.(type) {
						case *ast.TypeSpec:
							node := add(pkg.Path+"."+s.Name.Name, "type "+s.Name.Name, s.Name, s, d.Doc, s.Doc, s.Comment)
							node.named, _ = pkg.Info.Defs[s.Name].Type().(*types.Named)
						case *ast.ValueSpec:
							for _, name := range s.Names {
								key := pkg.Path + "." + name.Name
								if name.Name == "_" {
									root(&progRoots, key, pkg.Info, s)
									continue
								}
								add(key, d.Tok.String()+" "+name.Name, name, s, d.Doc, s.Doc, s.Comment)
								if d.Tok == token.VAR && callsSomething(pkg.Info, s.Values) {
									progRoots = append(progRoots, key)
								}
							}
						}
					}
				}
			}
		}
		for _, tf := range pkg.tests {
			collectIfaces(tf.info, ifaces, visited)
			for _, f := range tf.files {
				root(&testRoots, pkg.Fset.File(f.Pos()).Name(), tf.info, f)
			}
		}
	}

	ifaceList := make([][]ifaceMethod, 0, len(ifaces))
	for _, ms := range ifaces {
		ifaceList = append(ifaceList, ms)
	}
	ifaceMethods := map[string][]string{}
	for key, node := range nodes {
		if node.named != nil {
			ifaceMethods[key] = keptByInterface(node.named, ifaceList)
		}
	}
	// closure is the set of keys reachable from roots; reaching a type
	// reaches the methods its interfaces keep.
	closure := func(roots []string) map[string]bool {
		seen := map[string]bool{}
		work := append([]string(nil), roots...)
		for len(work) > 0 {
			key := work[len(work)-1]
			work = work[:len(work)-1]
			if !seen[key] {
				seen[key] = true
				work = append(append(work, edges[key]...), ifaceMethods[key]...)
			}
		}
		return seen
	}

	reachProg := closure(progRoots)
	reachAll := closure(append(testRoots, progRoots...))
	kept := append([]string(nil), progRoots...)
	for key, node := range nodes {
		if node.api && reachAll[key] && !reachProg[key] {
			kept = append(kept, key)
			for i := 0; node.named != nil && i < node.named.NumMethods(); i++ {
				kept = append(kept, qualifiedFuncName(node.named.Method(i)))
			}
		}
	}
	reachKept := closure(kept)
	for key, node := range nodes {
		switch {
		case !reachAll[key]:
			report(node.pkg, node.pos, node.label+" is unreachable: no main, init, var initializer, root-package export or test reaches it; delete it")
		case !reachKept[key]:
			report(node.pkg, node.pos, node.label+" is reached only from tests; delete it with its tests, move it into a _test.go file, or annotate //tbd:api <why>")
		}
	}
}

// uses lists the qualified names of the package-level objects and
// methods that identifiers inside n refer to.
func uses(info *types.Info, n ast.Node) []string {
	var keys []string
	ast.Inspect(n, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if key := objectKey(info.Uses[id]); key != "" {
				keys = append(keys, key)
			}
		}
		return true
	})
	return keys
}

// objectKey is the qualified name of a package-level object or method,
// or "" for anything else (locals, fields, builtins).
func objectKey(obj types.Object) string {
	if obj == nil || obj.Pkg() == nil {
		return ""
	}
	if fn, ok := obj.(*types.Func); ok {
		return qualifiedFuncName(fn.Origin())
	}
	if obj.Pkg().Scope().Lookup(obj.Name()) != obj {
		return ""
	}
	return obj.Pkg().Path() + "." + obj.Name()
}

// apiExported reports whether a root-package key is part of its
// exported API: an exported name, or an exported method of an exported
// type.
func apiExported(key string) bool {
	for _, part := range strings.Split(strings.TrimPrefix(key, apiRoot+"."), ".") {
		if !token.IsExported(part) {
			return false
		}
	}
	return true
}

// callsSomething reports whether a var initializer makes a call other
// than a conversion: such an initializer runs for its effects.
func callsSomething(info *types.Info, values []ast.Expr) bool {
	found := false
	for _, v := range values {
		ast.Inspect(v, func(n ast.Node) bool {
			if _, ok := n.(*ast.FuncLit); ok {
				return false
			}
			if call, ok := n.(*ast.CallExpr); ok && !info.Types[call.Fun].IsType() {
				found = true
			}
			return !found
		})
	}
	return found
}

// ifaceMethod is one method of an interface, its signature rendered
// with full package paths so export-data and source types compare.
type ifaceMethod struct{ name, sig string }

// collectIfaces records every interface with methods that an expression
// or a used object's type mentions, through pointers, containers and
// signatures (the conversion targets the program can reach). visited
// skips the types an earlier call walked.
func collectIfaces(info *types.Info, into map[string][]ifaceMethod, visited map[types.Type]bool) {
	var visit func(t types.Type)
	visit = func(t types.Type) {
		if visited[t] {
			return
		}
		visited[t] = true
		switch t := t.(type) {
		case *types.Named, *types.Alias:
			if it, ok := t.Underlying().(*types.Interface); ok {
				visit(it)
			}
		case *types.Interface:
			var ms []ifaceMethod
			var key strings.Builder
			for i := 0; i < t.NumMethods(); i++ {
				m := ifaceMethod{t.Method(i).Name(), sigString(t.Method(i))}
				ms = append(ms, m)
				key.WriteString(m.name + m.sig + ";")
			}
			into[key.String()] = ms
		case *types.Map:
			visit(t.Key())
			visit(t.Elem())
		case interface{ Elem() types.Type }: // pointer, slice, array, chan
			visit(t.Elem())
		case *types.Signature:
			visit(t.Params())
			visit(t.Results())
		case *types.Tuple:
			for i := 0; i < t.Len(); i++ {
				visit(t.At(i).Type())
			}
		}
	}
	for _, tv := range info.Types {
		visit(tv.Type)
	}
	for _, obj := range info.Uses {
		switch obj.(type) {
		case *types.Var, *types.Func:
			visit(obj.Type())
		}
	}
}

// sigString renders a method's parameter and result types, without
// names.
func sigString(fn *types.Func) string {
	sig := fn.Type().(*types.Signature)
	var b bytes.Buffer
	for _, tuple := range []*types.Tuple{sig.Params(), sig.Results()} {
		b.WriteByte('(')
		for i := 0; i < tuple.Len(); i++ {
			types.WriteType(&b, tuple.At(i).Type(), func(p *types.Package) string { return p.Path() })
			b.WriteByte(',')
		}
		b.WriteByte(')')
	}
	if sig.Variadic() {
		b.WriteString("...")
	}
	return b.String()
}

// keptByInterface lists the method keys of named (and of *named) that
// an interface it implements, or a dynamically looked-up name, keeps.
func keptByInterface(named *types.Named, ifaces [][]ifaceMethod) []string {
	if types.IsInterface(named) {
		return nil
	}
	mset := types.NewMethodSet(types.NewPointer(named))
	sigs := map[string]string{}
	keys := map[string]string{}
	var kept []string
	for i := 0; i < mset.Len(); i++ {
		fn, ok := mset.At(i).Obj().(*types.Func)
		if !ok {
			continue
		}
		sigs[fn.Name()] = sigString(fn)
		keys[fn.Name()] = qualifiedFuncName(fn.Origin())
		if dynamicMethods[fn.Name()] {
			kept = append(kept, keys[fn.Name()])
		}
	}
	for _, ms := range ifaces {
		implements := true
		for _, m := range ms {
			if sigs[m.name] != m.sig {
				implements = false
				break
			}
		}
		if implements {
			for _, m := range ms {
				kept = append(kept, keys[m.name])
			}
		}
	}
	sort.Strings(kept)
	return kept
}
