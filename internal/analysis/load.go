package analysis

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"sync"
)

// Package is one parsed and typechecked package ready for analysis.
type Package struct {
	Path  string
	Dir   string
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info

	// tests are the package's _test.go files, in-package and external,
	// each set typechecked on its own. Only phase 1 reads them, for the
	// unused analyzer's test roots; every analyzer checks Files.
	tests []testFiles
	// excluded are the files build constraints leave out on this host,
	// parsed but not typechecked: the names they mention stay reachable.
	excluded []*ast.File

	escapes map[string]map[int]escapeComment
}

// testFiles is one typechecked set of _test.go files.
type testFiles struct {
	files []*ast.File
	info  *types.Info
}

// listEntry is the subset of `go list -json` output the loader consumes.
type listEntry struct {
	ImportPath     string
	Dir            string
	Export         string
	GoFiles        []string
	TestGoFiles    []string
	XTestGoFiles   []string
	IgnoredGoFiles []string
	TestImports    []string
	XTestImports   []string
	DepOnly        bool
	Error          *struct{ Err string }
}

// Loader typechecks module packages using only the standard library:
// `go list -export` resolves imports and produces compiler export data,
// and go/importer's gc importer consumes it. Syntax and full type
// information are built per analyzed package with go/parser + go/types;
// dependencies (standard library included) are imported from export
// data, so no third-party loader is needed.
type Loader struct {
	// ModRoot is the module root directory (where go.mod lives).
	ModRoot string
	// Workers bounds the typechecking fan-out in Load; 0 or 1 means
	// serial. Parsing and typechecking are per-package independent —
	// token.FileSet is internally locked and the shared gc importer is
	// wrapped in a mutex (its export-data cache is not) — so package
	// order never affects positions or results.
	Workers int

	fset    *token.FileSet
	exports map[string]string // import path -> export data file
	imp     types.Importer
}

// NewLoader returns a loader rooted at the module containing dir.
func NewLoader(dir string) (*Loader, error) {
	root, err := findModRoot(dir)
	if err != nil {
		return nil, err
	}
	l := &Loader{ModRoot: root, fset: token.NewFileSet(), exports: map[string]string{}}
	l.imp = &lockedImporter{imp: importer.ForCompiler(l.fset, "gc", func(path string) (io.ReadCloser, error) {
		f, ok := l.exports[path]
		if !ok {
			return nil, fmt.Errorf("analysis: no export data for %q", path)
		}
		return os.Open(f)
	})}
	return l, nil
}

// lockedImporter serializes access to the gc importer, whose package
// cache is not safe for concurrent Import calls.
type lockedImporter struct {
	mu  sync.Mutex
	imp types.Importer
}

func (l *lockedImporter) Import(path string) (*types.Package, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.imp.Import(path)
}

func (l *lockedImporter) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if from, ok := l.imp.(types.ImporterFrom); ok {
		return from.ImportFrom(path, dir, mode)
	}
	return l.imp.Import(path)
}

// findModRoot walks up from dir until it finds go.mod.
func findModRoot(dir string) (string, error) {
	dir, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("analysis: no go.mod found above %s", dir)
		}
		dir = parent
	}
}

// Load resolves the package patterns (e.g. "./...") and returns the
// matched module packages, parsed with comments and fully typechecked.
// The analyzers enforce invariants on the shipped code; test files are
// attached beside it for phase 1's reachability roots only.
func (l *Loader) Load(patterns ...string) ([]*Package, error) {
	entries, err := l.list(patterns)
	if err != nil {
		return nil, err
	}
	var targets []listEntry
	for _, e := range entries {
		if !e.DepOnly {
			targets = append(targets, e)
		}
	}
	if err := l.listTestImports(targets); err != nil {
		return nil, err
	}
	workers := l.Workers
	if workers < 1 {
		workers = 1
	}
	if workers > len(targets) {
		workers = len(targets)
	}
	pkgs := make([]*Package, len(targets))
	errs := make([]error, len(targets))
	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				pkgs[i], errs[i] = l.check(targets[i])
			}
		}()
	}
	for i := range targets {
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	sort.Slice(pkgs, func(i, j int) bool { return pkgs[i].Path < pkgs[j].Path })
	return pkgs, nil
}

// listTestImports resolves the export data of the packages only the
// entries' _test.go files import (testing and the like).
func (l *Loader) listTestImports(entries []listEntry) error {
	var missing []string
	for _, e := range entries {
		for _, path := range append(e.TestImports, e.XTestImports...) {
			if _, ok := l.exports[path]; !ok {
				missing = append(missing, path)
			}
		}
	}
	if len(missing) == 0 {
		return nil
	}
	_, err := l.list(missing)
	return err
}

// list runs `go list -e -deps -export` over the patterns, records every
// export data file it produced, and returns the entries.
func (l *Loader) list(patterns []string) ([]listEntry, error) {
	args := append([]string{
		"list", "-e", "-deps", "-export",
		"-json=ImportPath,Dir,Export,GoFiles,TestGoFiles,XTestGoFiles,IgnoredGoFiles,TestImports,XTestImports,DepOnly,Error",
	}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = l.ModRoot
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("analysis: go list %s: %v\n%s", strings.Join(patterns, " "), err, stderr.String())
	}
	var entries []listEntry
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var e listEntry
		if err := dec.Decode(&e); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("analysis: decoding go list output: %v", err)
		}
		if e.Error != nil {
			return nil, fmt.Errorf("analysis: %s: %s", e.ImportPath, e.Error.Err)
		}
		if e.Export != "" {
			l.exports[e.ImportPath] = e.Export
		}
		entries = append(entries, e)
	}
	return entries, nil
}

// check parses the entry's files and typechecks them as one package,
// then its _test.go files: in-package tests beside the package's own
// files, external tests as their own package.
func (l *Loader) check(e listEntry) (*Package, error) {
	files, err := l.parse(e.Dir, e.GoFiles)
	if err != nil {
		return nil, err
	}
	pkg := &Package{Path: e.ImportPath, Dir: e.Dir, Fset: l.fset, Files: files}
	if pkg.Types, pkg.Info, err = l.typecheck(e.ImportPath, files); err != nil {
		return nil, err
	}
	for i, names := range [][]string{e.TestGoFiles, e.XTestGoFiles} {
		if len(names) == 0 {
			continue
		}
		tfiles, err := l.parse(e.Dir, names)
		if err != nil {
			return nil, err
		}
		path, all := e.ImportPath, append(files[:len(files):len(files)], tfiles...)
		if i == 1 {
			path, all = e.ImportPath+"_test", tfiles
		}
		_, info, err := l.typecheck(path, all)
		if err != nil {
			return nil, err
		}
		pkg.tests = append(pkg.tests, testFiles{files: tfiles, info: info})
	}
	if pkg.excluded, err = l.parse(e.Dir, e.IgnoredGoFiles); err != nil {
		return nil, err
	}
	return pkg, nil
}

func (l *Loader) parse(dir string, names []string) ([]*ast.File, error) {
	var files []*ast.File
	for _, name := range names {
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("analysis: %v", err)
		}
		files = append(files, f)
	}
	return files, nil
}

func (l *Loader) typecheck(importPath string, files []*ast.File) (*types.Package, *types.Info, error) {
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	conf := types.Config{Importer: l.imp}
	tpkg, err := conf.Check(importPath, l.fset, files, info)
	if err != nil {
		return nil, nil, fmt.Errorf("analysis: typechecking %s: %v", importPath, err)
	}
	return tpkg, info, nil
}
