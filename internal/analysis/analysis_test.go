package analysis

import (
	"fmt"
	"go/build"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// wantRe extracts an expectation from a fixture comment: the diagnostic
// on that line must match the quoted regexp.
var wantRe = regexp.MustCompile(`want "([^"]*)"`)

type wantComment struct {
	file    string
	line    int
	re      *regexp.Regexp
	matched bool
}

// collectWants indexes every `want "..."` comment in the fixture package.
func collectWants(t *testing.T, pkg *Package) []*wantComment {
	t.Helper()
	var wants []*wantComment
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := wantRe.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				re, err := regexp.Compile(m[1])
				if err != nil {
					t.Fatalf("bad want regexp %q: %v", m[1], err)
				}
				pos := pkg.Fset.Position(c.Pos())
				wants = append(wants, &wantComment{file: pos.Filename, line: pos.Line, re: re})
			}
		}
	}
	return wants
}

// runFixture loads one testdata package under a synthetic import path and
// asserts the analyzer's diagnostics match the fixture's want comments
// exactly: every want matched by a diagnostic on its line, no diagnostic
// without a want.
func runFixture(t *testing.T, a *Analyzer, subdir, importPath string, deps ...string) {
	t.Helper()
	l, err := NewLoader(".")
	if err != nil {
		t.Fatalf("NewLoader: %v", err)
	}
	pkg, err := l.LoadDir(filepath.Join("testdata", "src", subdir), importPath, deps...)
	if err != nil {
		t.Fatalf("LoadDir(%s): %v", subdir, err)
	}
	diags, _ := RunParallel([]*Package{pkg}, []*Analyzer{a}, 1)
	wants := collectWants(t, pkg)
	if len(wants) == 0 {
		t.Fatalf("fixture %s has no want comments", subdir)
	}
	for _, d := range diags {
		found := false
		for _, w := range wants {
			if w.file == d.Pos.Filename && w.line == d.Pos.Line && w.re.MatchString(d.Message) {
				w.matched = true
				found = true
				break
			}
		}
		if !found {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	for _, w := range wants {
		if !w.matched {
			t.Errorf("%s:%d: want %q, got no matching diagnostic", w.file, w.line, w.re)
		}
	}
}

func TestPoolcheckFixture(t *testing.T) {
	runFixture(t, Poolcheck, "poolcheck", "fix/poolcheck", "tbd/internal/tensor")
}

func TestSpancheckFixture(t *testing.T) {
	runFixture(t, Spancheck, "spancheck", "fix/spancheck", "tbd/internal/prof")
}

func TestDeterminismFixture(t *testing.T) {
	// The synthetic import path places the fixture inside a kernel
	// hot-path package tree.
	runFixture(t, Determinism, "determinism", "tbd/internal/tensor/fix", "time", "math/rand")
}

func TestDeterminismIgnoresColdPaths(t *testing.T) {
	l, err := NewLoader(".")
	if err != nil {
		t.Fatalf("NewLoader: %v", err)
	}
	// Same files, non-hot-path import path: the analyzer must not fire.
	pkg, err := l.LoadDir(filepath.Join("testdata", "src", "determinism"), "fix/coldpath", "time", "math/rand")
	if err != nil {
		t.Fatalf("LoadDir: %v", err)
	}
	if diags, _ := RunParallel([]*Package{pkg}, []*Analyzer{Determinism}, 1); len(diags) != 0 {
		t.Errorf("determinism fired outside hot-path packages: %v", diags)
	}
}

func TestLockcheckFixture(t *testing.T) {
	runFixture(t, Lockcheck, "lockcheck", "fix/lockcheck", "sync")
}

func TestAtomiccheckFixture(t *testing.T) {
	runFixture(t, Atomiccheck, "atomiccheck", "fix/atomiccheck", "sync/atomic")
}

func TestGoleakFixture(t *testing.T) {
	// The synthetic import path places the fixture inside the analyzer's
	// concurrent-subsystem scope.
	runFixture(t, Goleak, "goleak", "tbd/internal/dist/fixleak", "sync")
}

func TestGoleakIgnoresOutOfScope(t *testing.T) {
	l, err := NewLoader(".")
	if err != nil {
		t.Fatalf("NewLoader: %v", err)
	}
	// Same files, out-of-scope import path: the analyzer must not fire.
	pkg, err := l.LoadDir(filepath.Join("testdata", "src", "goleak"), "fix/goleak", "sync")
	if err != nil {
		t.Fatalf("LoadDir: %v", err)
	}
	if diags, _ := RunParallel([]*Package{pkg}, []*Analyzer{Goleak}, 1); len(diags) != 0 {
		t.Errorf("goleak fired outside dist/serve/data/prof: %v", diags)
	}
}

func TestWirecheckFixture(t *testing.T) {
	runFixture(t, Wirecheck, "wirecheck", "fix/wirecheck")
}

func TestInterprocPoolcheckFixture(t *testing.T) {
	runFixture(t, Poolcheck, "interproc", "fix/interproc", "tbd/internal/tensor")
}

func TestErrcheckFixture(t *testing.T) {
	runFixture(t, ErrcheckLite, "errcheck", "tbd/cmd/fix", "errors", "fmt", "os", "strings")
}

func TestUnusedFixture(t *testing.T) {
	runFixture(t, Unused, "unused", "fix/unused", "fmt", "io")
}

// TestTreeIsClean is the in-tree lint gate: the full analyzer suite over
// the whole module must report nothing (every true positive is fixed or
// carries a justified escape).
func TestTreeIsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("shells out to go list over the whole module")
	}
	l, err := NewLoader(".")
	if err != nil {
		t.Fatalf("NewLoader: %v", err)
	}
	pkgs, err := l.Load("./...")
	if err != nil {
		t.Fatalf("Load ./...: %v", err)
	}
	if len(pkgs) < 10 {
		t.Fatalf("loaded only %d packages, expected the whole module", len(pkgs))
	}
	diags, _ := RunParallel(pkgs, All, 1)
	for _, d := range diags {
		t.Errorf("%s", d)
	}
	if len(diags) > 0 {
		t.Errorf("%d finding(s); fix them or annotate with //tbd: escapes", len(diags))
	}
}

// TestParallelMatchesSerial pins the parallel driver's contract: a
// multi-worker run over the whole module produces byte-identical output
// to the serial run. Under -race (make analysis-race) it also shakes
// out data races in the engine's own fan-out.
func TestParallelMatchesSerial(t *testing.T) {
	if testing.Short() {
		t.Skip("shells out to go list over the whole module")
	}
	l, err := NewLoader(".")
	if err != nil {
		t.Fatalf("NewLoader: %v", err)
	}
	l.Workers = 8
	pkgs, err := l.Load("./...")
	if err != nil {
		t.Fatalf("Load ./...: %v", err)
	}
	render := func(diags []Diagnostic) string {
		var b strings.Builder
		for _, d := range diags {
			fmt.Fprintln(&b, d)
		}
		return b.String()
	}
	serial, _ := RunParallel(pkgs, All, 1)
	parallel, _ := RunParallel(pkgs, All, 8)
	if got, want := render(parallel), render(serial); got != want {
		t.Errorf("parallel output differs from serial:\nserial:\n%s\nparallel:\n%s", want, got)
	}
}

// TestDiagnosticOrdering pins the driver's sort: findings come back
// ordered by file, line, column for stable golden output.
func TestDiagnosticOrdering(t *testing.T) {
	l, err := NewLoader(".")
	if err != nil {
		t.Fatalf("NewLoader: %v", err)
	}
	pkg, err := l.LoadDir(filepath.Join("testdata", "src", "poolcheck"), "fix/poolcheck", "tbd/internal/tensor")
	if err != nil {
		t.Fatalf("LoadDir: %v", err)
	}
	diags, _ := RunParallel([]*Package{pkg}, []*Analyzer{Poolcheck}, 1)
	for i := 1; i < len(diags); i++ {
		a, b := diags[i-1].Pos, diags[i].Pos
		if a.Filename > b.Filename || (a.Filename == b.Filename && a.Line > b.Line) {
			t.Errorf("diagnostics out of order: %s before %s",
				fmt.Sprintf("%s:%d", a.Filename, a.Line), fmt.Sprintf("%s:%d", b.Filename, b.Line))
		}
	}
}

// LoadDir parses and typechecks a single directory of Go files outside
// the module build graph (analyzer test fixtures under testdata) under
// the given synthetic import path. deps lists the module packages the
// fixture files import; their export data — and the standard library's —
// is resolved first.
func (l *Loader) LoadDir(dir, importPath string, deps ...string) (*Package, error) {
	if len(deps) > 0 {
		if _, err := l.list(deps); err != nil {
			return nil, err
		}
	}
	bp, err := build.ImportDir(dir, 0)
	if err != nil {
		return nil, fmt.Errorf("analysis: %v", err)
	}
	e := listEntry{
		ImportPath: importPath, Dir: dir, GoFiles: bp.GoFiles,
		TestGoFiles: bp.TestGoFiles, XTestGoFiles: bp.XTestGoFiles, IgnoredGoFiles: bp.IgnoredGoFiles,
		TestImports: bp.TestImports, XTestImports: bp.XTestImports,
	}
	if err := l.listTestImports([]listEntry{e}); err != nil {
		return nil, err
	}
	return l.check(e)
}
