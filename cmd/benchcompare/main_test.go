package main

import (
	"encoding/json"
	"go/ast"
	"go/parser"
	"go/token"
	"io"
	"io/fs"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// events renders output chunks as a `go test -json` stream.
func events(chunks ...string) string {
	var b strings.Builder
	for _, c := range chunks {
		line, _ := json.Marshal(testEvent{Action: "output", Output: c})
		b.Write(line)
		b.WriteByte('\n')
	}
	return b.String()
}

func TestParseJoinsSplitEventsAndStripsProcs(t *testing.T) {
	stream := events(
		"goos: linux\n",
		"BenchmarkServeBatched/cap1-4 \t",
		"   13233\t    169606 ns/op\t      5896 samples/s\t     712 B/op\n",
		"BenchmarkGEMM256 \t     100\t   2000 ns/op\t  16.5 GFLOP/s\n",
		"BenchmarkDist/w2/ps-sync/fp16/1gbe-16         \t       1\t 90000 ns/op\n",
	) + "not json\n" + events("PASS\n")
	got, err := parseBenchOutput(strings.NewReader(stream), "stream")
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]map[string]float64{
		"BenchmarkServeBatched/cap1":         {"ns/op": 169606, "samples/s": 5896, "B/op": 712},
		"BenchmarkGEMM256":                   {"ns/op": 2000, "GFLOP/s": 16.5},
		"BenchmarkDist/w2/ps-sync/fp16/1gbe": {"ns/op": 90000},
	}
	if len(got) != len(want) {
		t.Fatalf("parsed %d results, want %d: %v", len(got), len(want), got)
	}
	for name, metrics := range want {
		r, ok := got[name]
		if !ok {
			t.Fatalf("missing %s in %v", name, got)
		}
		for unit, v := range metrics {
			if r.metrics[unit] != v {
				t.Errorf("%s %s = %v, want %v", name, unit, r.metrics[unit], v)
			}
		}
	}
	if got["BenchmarkServeBatched/cap1"].iters != 13233 {
		t.Errorf("iters = %d, want 13233", got["BenchmarkServeBatched/cap1"].iters)
	}
	if _, err := parseBenchOutput(strings.NewReader(events("PASS\n")), "empty"); err == nil {
		t.Fatal("a stream without result lines must be an error")
	}
}

func result(metrics map[string]float64) benchResult { return benchResult{metrics: metrics} }

func TestRegressionsBothDirections(t *testing.T) {
	old := result(map[string]float64{"ns/op": 1000, "samples/s": 500})
	for _, c := range []struct {
		name string
		new  map[string]float64
		bad  int
	}{
		{"within tolerance", map[string]float64{"ns/op": 1190, "samples/s": 410}, 0},
		{"much faster", map[string]float64{"ns/op": 100, "samples/s": 5000}, 0},
		{"slower", map[string]float64{"ns/op": 1300, "samples/s": 500}, 1},
		{"less throughput", map[string]float64{"ns/op": 1000, "samples/s": 300}, 1},
		{"both", map[string]float64{"ns/op": 1300, "samples/s": 300}, 2},
		{"rate only on one side", map[string]float64{"ns/op": 1000}, 0},
	} {
		if got := regressions(old, result(c.new), 0.2); len(got) != c.bad {
			t.Errorf("%s: regressions = %v, want %d", c.name, got, c.bad)
		}
	}
}

func TestGateFailsOnMissingBenchmark(t *testing.T) {
	old := map[string]benchResult{
		"BenchmarkA": result(map[string]float64{"ns/op": 10}),
		"BenchmarkB": result(map[string]float64{"ns/op": 10}),
	}
	cur := map[string]benchResult{"BenchmarkA": result(map[string]float64{"ns/op": 10})}
	var out strings.Builder
	if failures := compare(&out, old, cur, 0, 0); len(failures) != 0 {
		t.Fatalf("ungated comparison failed: %v", failures)
	}
	if !regexp.MustCompile(`(?m)^BenchmarkB .*gone$`).MatchString(out.String()) {
		t.Fatalf("missing benchmark not reported as gone:\n%s", out.String())
	}
	failures := compare(io.Discard, old, cur, 0.2, 0)
	if len(failures) != 1 || !strings.HasPrefix(failures[0], "BenchmarkB: missing") {
		t.Fatalf("gate failures = %v, want BenchmarkB missing", failures)
	}
	if failures := compare(io.Discard, old, cur, 0, 20); len(failures) != 1 {
		t.Fatalf("errbound gate failures = %v, want BenchmarkB missing", failures)
	}
}

func TestErrBoundIsAbsolute(t *testing.T) {
	cur := map[string]benchResult{"BenchmarkW/new-cell": result(map[string]float64{"ns/op": 1, "pred-err-pct": 25})}
	if failures := compare(io.Discard, map[string]benchResult{}, cur, 0, 20); len(failures) != 1 {
		t.Fatalf("a new cell over the bound must fail, got %v", failures)
	}
}

func TestPatternFromBaseline(t *testing.T) {
	baseline := map[string]benchResult{
		"BenchmarkGEMM256":            {},
		"BenchmarkGEMMTier/avx2/256":  {},
		"BenchmarkGEMMTier/ref/1024":  {},
		"BenchmarkServeBatched/cap64": {},
	}
	const want = `^(BenchmarkGEMM256|BenchmarkGEMMTier|BenchmarkServeBatched)$`
	if got := benchPattern(baseline); got != want {
		t.Fatalf("pattern = %s, want %s", got, want)
	}
	re := regexp.MustCompile(want)
	for _, name := range []string{"BenchmarkGEMM256x", "BenchmarkGEMM", "BenchmarkServe"} {
		if re.MatchString(name) {
			t.Errorf("pattern runs %s, which the baseline does not name", name)
		}
	}
}

// TestEveryRootBenchmarkIsTracked holds the root package's benchmarks and
// the committed baselines to one list: every Benchmark function is named
// in some BENCH_*.json, and every top-level name in those files is a
// function. A benchmark that no baseline records is compared by nothing.
func TestEveryRootBenchmarkIsTracked(t *testing.T) {
	root := filepath.Join("..", "..")
	pkgs, err := parser.ParseDir(token.NewFileSet(), root, func(fi fs.FileInfo) bool {
		return strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	var funcs []string
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, d := range f.Decls {
				if fd, ok := d.(*ast.FuncDecl); ok && fd.Recv == nil && strings.HasPrefix(fd.Name.Name, "Benchmark") {
					funcs = append(funcs, fd.Name.Name)
				}
			}
		}
	}
	files, err := filepath.Glob(filepath.Join(root, "BENCH_*.json"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no committed baselines: %v", err)
	}
	tracked := map[string]string{}
	for _, path := range files {
		res, err := parseBenchFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for name := range res {
			top, _, _ := strings.Cut(name, "/")
			tracked[top] = filepath.Base(path)
		}
	}
	for _, fn := range funcs {
		if _, ok := tracked[fn]; !ok {
			t.Errorf("%s is recorded in no BENCH_*.json, so nothing compares it", fn)
		}
	}
	for name, file := range tracked {
		if !slices.Contains(funcs, name) {
			t.Errorf("%s names %s, which is no root benchmark", file, name)
		}
	}
}
