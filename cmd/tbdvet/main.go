// Command tbdvet is the repo's custom static analyzer: it loads every
// package named by the patterns (default ./...) with go/parser and
// go/types and runs the nine invariant checks in internal/analysis —
// poolcheck, spancheck, determinism, lockcheck, errcheck-lite,
// atomiccheck, goleak, wirecheck, and unused — over the phase-1
// interprocedural summaries and reachability graph. unused takes the
// loaded packages as the whole program (mains, inits, the root
// package's API, and the _test.go files as test roots), so run it over
// ./...; test-only code it accepts carries //tbd:api <why>.
//
//	tbdvet ./...                      # human-readable findings
//	tbdvet -json ./...                # machine-readable (report.Table JSON)
//	tbdvet -list                      # describe the analyzers
//	tbdvet -analyzers poolcheck ./... # run a subset
//	tbdvet -cpu 1 ./...               # serial run (output is identical)
//	tbdvet -stats ./...               # engine cost: packages, summaries, wall
//
// Exit status: 0 when the tree is clean, 1 when there are findings,
// 2 when loading or typechecking failed. `make lint` runs it at zero
// findings; deliberate exceptions are annotated in source with //tbd:
// escape comments rather than suppressed here.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"tbd/internal/analysis"
	"tbd/internal/report"
)

func main() {
	jsonOut := flag.Bool("json", false, "emit findings as JSON (report.Table row objects)")
	list := flag.Bool("list", false, "list the analyzers and the invariants they enforce")
	only := flag.String("analyzers", "", "comma-separated subset of analyzers to run (default all)")
	cpu := flag.Int("cpu", runtime.NumCPU(), "worker count for typechecking and checking (1 = serial; output is byte-identical either way)")
	stats := flag.Bool("stats", false, "print engine statistics (packages, functions, summaries, wall time) to stderr")
	flag.Parse()

	if *list {
		for _, a := range analysis.All {
			fmt.Printf("%-14s %s\n", a.Name, a.Doc)
		}
		return
	}

	analyzers, err := selectAnalyzers(*only)
	if err != nil {
		fmt.Fprintln(os.Stderr, "tbdvet:", err)
		os.Exit(2)
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	wd, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(os.Stderr, "tbdvet:", err)
		os.Exit(2)
	}
	loader, err := analysis.NewLoader(wd)
	if err != nil {
		fmt.Fprintln(os.Stderr, "tbdvet:", err)
		os.Exit(2)
	}
	loader.Workers = *cpu
	pkgs, err := loader.Load(patterns...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "tbdvet:", err)
		os.Exit(2)
	}

	diags, st := analysis.RunParallel(pkgs, analyzers, *cpu)
	if *stats {
		fmt.Fprintf(os.Stderr, "tbdvet: %d packages, %d functions, %d summaries, %d workers, %s\n",
			st.Packages, st.Functions, st.Summaries, *cpu, st.Wall.Round(time.Millisecond))
	}
	if *jsonOut {
		tbl := &report.Table{
			Title:   "tbdvet findings",
			Columns: []string{"file", "line", "col", "analyzer", "message"},
		}
		for _, d := range diags {
			tbl.AddRow(relPath(loader.ModRoot, d.Pos.Filename), strconv.Itoa(d.Pos.Line), strconv.Itoa(d.Pos.Column), d.Check, d.Message)
		}
		if err := tbl.WriteJSON(os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "tbdvet:", err)
			os.Exit(2)
		}
	} else {
		for _, d := range diags {
			fmt.Printf("%s:%d:%d: [%s] %s\n", relPath(loader.ModRoot, d.Pos.Filename), d.Pos.Line, d.Pos.Column, d.Check, d.Message)
		}
	}
	if len(diags) > 0 {
		if !*jsonOut {
			fmt.Fprintf(os.Stderr, "tbdvet: %d finding(s) in %d package(s)\n", len(diags), len(pkgs))
		}
		os.Exit(1)
	}
}

// selectAnalyzers resolves the -analyzers flag against the registry.
func selectAnalyzers(only string) ([]*analysis.Analyzer, error) {
	if only == "" {
		return analysis.All, nil
	}
	byName := map[string]*analysis.Analyzer{}
	for _, a := range analysis.All {
		byName[a.Name] = a
	}
	var out []*analysis.Analyzer
	for _, name := range strings.Split(only, ",") {
		name = strings.TrimSpace(name)
		a, ok := byName[name]
		if !ok {
			return nil, fmt.Errorf("unknown analyzer %q (run tbdvet -list)", name)
		}
		out = append(out, a)
	}
	return out, nil
}

// relPath shortens filenames to module-relative form for stable output.
func relPath(root, filename string) string {
	if rel, ok := strings.CutPrefix(filename, root+string(os.PathSeparator)); ok {
		return rel
	}
	return filename
}
