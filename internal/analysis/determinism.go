package analysis

import (
	"go/ast"
	"go/types"
	"strconv"
	"strings"
)

// Determinism guards the engine's bit-identity contract: the numeric
// kernels must produce the same bits at every parallelism level (the
// property the parallel-vs-serial Equal(..., 0) tests pin), so the
// kernel hot-path packages may not contain order- or time-dependent
// logic. Inside the hot-path packages it forbids:
//
//   - ranging over a map (iteration order is randomized per run);
//   - wall-clock reads: time.Now, time.Since, time.Until;
//   - math/rand and math/rand/v2 (the engine's tensor.RNG is the only
//     sanctioned randomness — explicitly seeded and deterministic);
//   - scheduler- and process-identity probes that enable goroutine-
//     dependent behavior: runtime.NumGoroutine, runtime.Gosched,
//     os.Getpid.
//
// A site that must break the rule carries //tbd:nondeterministic-ok
// followed by a justification; an escape without a justification is
// itself a finding.
var Determinism = &Analyzer{
	Name: "determinism",
	Doc:  "kernel hot paths must stay bit-identical: no map iteration, wall clocks, or math/rand",
	Run:  runDeterminism,
}

// hotPathPrefixes are the packages (and their subpackages) holding code
// that must be bit-identical across parallelism levels: the tensor
// kernels and worker pool, the kernel cost models, the fused
// optimizer kernels, the what-if replay engine (its golden-error
// CI gate assumes bit-stable predictions), and the simulator, its
// scheduler and the exchange schedule both replay on (every table and
// figure is pinned to their bits).
var hotPathPrefixes = []string{
	"tbd/internal/tensor",
	"tbd/internal/kernels",
	"tbd/internal/optim",
	"tbd/internal/whatif",
	"tbd/internal/sim",
	"tbd/internal/sched",
	"tbd/internal/exchange",
}

// nondetCalls are forbidden callees in hot paths.
var nondetCalls = map[string]string{
	"time.Now":             "wall-clock read",
	"time.Since":           "wall-clock read",
	"time.Until":           "wall-clock read",
	"runtime.NumGoroutine": "scheduler-dependent value",
	"runtime.Gosched":      "scheduler perturbation",
	"os.Getpid":            "process-identity value",
}

// nondetImportPkgs are packages that may not be used at all in hot paths.
var nondetImportPkgs = map[string]bool{
	"math/rand":    true,
	"math/rand/v2": true,
}

func inHotPath(pkgPath string) bool {
	for _, prefix := range hotPathPrefixes {
		if pkgPath == prefix || strings.HasPrefix(pkgPath, prefix+"/") {
			return true
		}
	}
	return false
}

func runDeterminism(p *Pass) {
	if !inHotPath(p.Pkg.Path) {
		return
	}
	report := func(pos ast.Node, what string) {
		if arg, ok := p.Escape(pos.Pos(), "nondeterministic-ok"); ok {
			if arg == "" {
				p.Reportf(pos.Pos(), "//tbd:nondeterministic-ok requires a justification string")
			}
			return
		}
		p.Reportf(pos.Pos(), "%s in kernel hot path %s: results must be bit-identical across parallelism levels (annotate //tbd:nondeterministic-ok <why> if unavoidable)", what, p.Pkg.Path)
	}
	for _, f := range p.Pkg.Files {
		for _, imp := range f.Imports {
			path, err := strconv.Unquote(imp.Path.Value)
			if err == nil && nondetImportPkgs[path] {
				report(imp, "import of "+path)
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.RangeStmt:
				t := p.Pkg.Info.TypeOf(n.X)
				if t != nil {
					if _, isMap := t.Underlying().(*types.Map); isMap {
						report(n, "map iteration (nondeterministic order)")
					}
				}
			case *ast.CallExpr:
				if what, bad := nondetCalls[p.calleeName(n)]; bad {
					report(n, what+" ("+p.calleeName(n)+")")
				}
			}
			return true
		})
	}
}
