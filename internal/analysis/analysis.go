// Package analysis is tbd's custom lint engine: eight repo-specific
// analyzers, built on nothing but the standard library's go/parser,
// go/ast, and go/types, that enforce the engine invariants the Go
// compiler cannot see.
//
// # Two-phase architecture
//
// The engine runs in two phases. Phase 1 (summarize) builds a Program
// over every loaded package: a call graph keyed by qualified function
// name plus per-function effect summaries — which parameters a function
// releases, borrows, or sinks (pooled-buffer flow), whether it hands a
// fresh pool acquisition back to its caller, and (per package) which
// mutexes a function locks or requires held at entry. Summaries are
// computed to a fixpoint, so wrappers of wrappers summarize correctly.
// Phase 2 (check) runs the analyzers; because the summaries are frozen
// after phase 1, packages are checked concurrently (see RunParallel)
// with findings merged and re-sorted so output is byte-identical to a
// serial run.
//
// Each analyzer guards a bug class this codebase has already paid to
// find once:
//
//   - poolcheck: every tensor.Pool acquisition must be released,
//     returned, or stashed under the documented one-step lifetime
//     contract — including acquisitions that flow through callees
//     (a helper that returns a fresh buffer obligates its caller; a
//     helper that merely borrows a buffer does not discharge the
//     caller's obligation, so an acquisition passed to it inline can
//     never be released; a helper that releases its argument counts
//     as a release, and releasing again is a double release).
//   - spancheck: every prof span Begin must reach End in the same
//     function, so the profiler's phase accounting stays balanced.
//   - determinism: hot paths that must stay bit-identical across
//     parallelism levels and replays (internal/tensor, internal/kernels,
//     internal/optim, internal/whatif) — no map iteration, wall clocks,
//     or math/rand.
//   - lockcheck: struct fields annotated "guarded by <mu>" may only be
//     touched with that mutex held; //tbd:locked-by-caller claims are
//     verified at every call site against the caller's own held set.
//   - errcheck-lite: no silently discarded error returns in cmd/ and
//     internal/serve.
//   - atomiccheck: a field ever accessed through the function-style
//     sync/atomic API is never accessed plainly elsewhere, and 64-bit
//     atomic fields are 64-bit aligned in their structs.
//   - goleak: every goroutine launched in the concurrent subsystems
//     (internal/dist, internal/serve, internal/data, internal/prof) has
//     a provable shutdown edge.
//   - wirecheck: every constant of a //tbd:wire-kinds vocabulary appears
//     on both the encode and the decode side of its hand-rolled
//     protocol.
//
// Deliberate exceptions are annotated in source with //tbd: escape
// comments (see the per-analyzer docs); escapes that can hide real bugs
// (nondeterministic-ok, fire-and-forget, atomic-ok, wire-ok,
// pre-publication) require a justification string — an empty one is
// itself a finding.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"sort"
	"strings"
	"sync"
	"time"
)

// Diagnostic is one finding, positioned for file:line:col display and
// machine-readable export.
type Diagnostic struct {
	Check   string
	Pos     token.Position
	Message string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Check, d.Message)
}

// Analyzer is one named check over a typechecked package.
type Analyzer struct {
	Name string
	// Doc is the one-line invariant statement shown by tbdvet -list.
	Doc string
	Run func(*Pass)
}

// All is the full analyzer suite in reporting order.
var All = []*Analyzer{Poolcheck, Spancheck, Determinism, Lockcheck, ErrcheckLite, Atomiccheck, Goleak, Wirecheck}

// Pass carries one (analyzer, package) run and collects its findings.
type Pass struct {
	Analyzer *Analyzer
	Pkg      *Package
	// Prog is the phase-1 program: cross-package function index and
	// effect summaries, read-only during the pass.
	Prog *Program

	diags *[]Diagnostic
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Check:   p.Analyzer.Name,
		Pos:     p.Pkg.Fset.Position(pos),
		Message: fmt.Sprintf(format, args...),
	})
}

// Stats describes one engine run, for tbdvet -stats.
type Stats struct {
	Packages  int
	Functions int
	Summaries int
	Wall      time.Duration
}

// Run executes the given analyzers over the packages serially and
// returns the findings sorted by position.
func Run(pkgs []*Package, analyzers []*Analyzer) []Diagnostic {
	diags, _ := RunParallel(pkgs, analyzers, 1)
	return diags
}

// RunParallel is Run with the phase-2 checks fanned out over a bounded
// worker pool, one package at a time per worker. Phase 1 (the Program
// build) stays serial — summaries must be complete before any check
// reads them. The merged findings are re-sorted under a total order, so
// the output is byte-identical to the serial run.
func RunParallel(pkgs []*Package, analyzers []*Analyzer, workers int) ([]Diagnostic, Stats) {
	start := time.Now()
	prog := NewProgram(pkgs)
	if workers < 1 {
		workers = 1
	}
	perPkg := make([][]Diagnostic, len(pkgs))
	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				for _, a := range analyzers {
					a.Run(&Pass{Analyzer: a, Pkg: pkgs[i], Prog: prog, diags: &perPkg[i]})
				}
			}
		}()
	}
	for i := range pkgs {
		jobs <- i
	}
	close(jobs)
	wg.Wait()

	var diags []Diagnostic
	for _, d := range perPkg {
		diags = append(diags, d...)
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		if a.Check != b.Check {
			return a.Check < b.Check
		}
		return a.Message < b.Message
	})
	return diags, Stats{
		Packages:  len(pkgs),
		Functions: len(prog.Funcs),
		Summaries: len(prog.Pool),
		Wall:      time.Since(start),
	}
}

// escapeRe matches a //tbd: escape comment and captures (tag, argument).
var escapeRe = regexp.MustCompile(`//\s*tbd:([a-z-]+)\s*(.*)`)

// Escape looks for a //tbd:<tag> comment attached to pos: on the same
// source line or the line immediately above. It returns the text after
// the tag (the justification, possibly empty) and whether the escape was
// found.
func (p *Pass) Escape(pos token.Pos, tag string) (arg string, ok bool) {
	position := p.Pkg.Fset.Position(pos)
	lines := p.Pkg.escapeLines(position.Filename)
	for _, line := range []int{position.Line, position.Line - 1} {
		if e, found := lines[line]; found && e.tag == tag {
			return e.arg, true
		}
	}
	return "", false
}

// FuncEscape reports whether fn's doc comment carries //tbd:<tag>.
func FuncEscape(fn *ast.FuncDecl, tag string) bool {
	_, ok := FuncEscapeArg(fn, tag)
	return ok
}

// FuncEscapeArg is FuncEscape returning the text after the tag (the
// justification, possibly empty).
func FuncEscapeArg(fn *ast.FuncDecl, tag string) (arg string, ok bool) {
	if fn == nil || fn.Doc == nil {
		return "", false
	}
	for _, c := range fn.Doc.List {
		if m := escapeRe.FindStringSubmatch(c.Text); m != nil && m[1] == tag {
			return strings.TrimSpace(m[2]), true
		}
	}
	return "", false
}

type escapeComment struct {
	tag string
	arg string
}

// escapeLines lazily indexes a file's //tbd: comments by line number.
// The cache is built per package before any concurrent access matters:
// analyzers for one package always run on the same worker.
func (pkg *Package) escapeLines(filename string) map[int]escapeComment {
	if pkg.escapes == nil {
		pkg.escapes = make(map[string]map[int]escapeComment)
	}
	if m, ok := pkg.escapes[filename]; ok {
		return m
	}
	m := make(map[int]escapeComment)
	for _, f := range pkg.Files {
		if pkg.Fset.Position(f.Pos()).Filename != filename {
			continue
		}
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if match := escapeRe.FindStringSubmatch(c.Text); match != nil {
					line := pkg.Fset.Position(c.Pos()).Line
					m[line] = escapeComment{tag: match[1], arg: strings.TrimSpace(match[2])}
				}
			}
		}
	}
	pkg.escapes[filename] = m
	return m
}

// calleeName returns the fully qualified name of the function or method
// called by call: "path/to/pkg.Func" for package functions and
// "path/to/pkg.Type.Method" for methods (pointer receivers unwrapped).
// It returns "" for builtins, conversions, and calls of function values.
func (pkg *Package) calleeName(call *ast.CallExpr) string {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return ""
	}
	fn, ok := pkg.Info.Uses[id].(*types.Func)
	if !ok {
		return ""
	}
	return qualifiedFuncName(fn)
}

func (p *Pass) calleeName(call *ast.CallExpr) string { return p.Pkg.calleeName(call) }

func qualifiedFuncName(fn *types.Func) string {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || fn.Pkg() == nil {
		return ""
	}
	if recv := sig.Recv(); recv != nil {
		t := recv.Type()
		if ptr, ok := t.(*types.Pointer); ok {
			t = ptr.Elem()
		}
		named, ok := t.(*types.Named)
		if !ok {
			return ""
		}
		return fn.Pkg().Path() + "." + named.Obj().Name() + "." + fn.Name()
	}
	return fn.Pkg().Path() + "." + fn.Name()
}

// objectOf resolves an identifier to its object (definition or use).
func (pkg *Package) objectOf(id *ast.Ident) types.Object {
	if obj := pkg.Info.Defs[id]; obj != nil {
		return obj
	}
	return pkg.Info.Uses[id]
}

func (p *Pass) objectOf(id *ast.Ident) types.Object { return p.Pkg.objectOf(id) }

// mentions reports whether expr references the variable v anywhere.
func (pkg *Package) mentions(n ast.Node, v types.Object) bool {
	if n == nil || v == nil {
		return false
	}
	found := false
	ast.Inspect(n, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && pkg.objectOf(id) == v {
			found = true
		}
		return !found
	})
	return found
}

func (p *Pass) mentions(n ast.Node, v types.Object) bool { return p.Pkg.mentions(n, v) }

// funcBodies yields every function body in the package — declarations
// and function literals — paired with the enclosing declaration (nil Doc
// handling is the caller's concern for literals).
func (p *Pass) funcBodies(visit func(decl *ast.FuncDecl, body *ast.BlockStmt)) {
	for _, f := range p.Pkg.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			visit(fd, fd.Body)
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				if lit, ok := n.(*ast.FuncLit); ok {
					visit(fd, lit.Body)
				}
				return true
			})
		}
	}
}
