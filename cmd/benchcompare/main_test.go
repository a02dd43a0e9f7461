package main

import (
	"context"
	"encoding/json"
	"go/ast"
	"go/parser"
	"go/token"
	"io"
	"io/fs"
	"maps"
	"math"
	"os"
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

// TestParseJoinsSplitEventsAndStripsProcs reads each row's ns/op from a
// `go test -json` stream: a line split over events, the -N suffix, the
// rates beside it, and a dist row whose ns/op the benchmark reported
// itself (its steady step, with samples/s beside it).
func TestParseJoinsSplitEventsAndStripsProcs(t *testing.T) {
	stream := events(
		"goos: linux\n",
		"BenchmarkServeBatched/cap1-4 \t",
		"   13233\t    169606 ns/op\t      5896 samples/s\t     712 B/op\n",
		"BenchmarkGEMM256 \t     100\t   2000 ns/op\t  16.5 GFLOP/s\n",
		"BenchmarkDist/w2/ring/full/10gbe-2  \t       3\t   2697368 ns/op\t      5932 samples/s\t13500109 B/op\t    2700 allocs/op\n",
	) + "not json\n" + events("PASS\n")
	got, err := parseBenchOutput(strings.NewReader(stream), "stream")
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{
		"BenchmarkServeBatched/cap1":       169606,
		"BenchmarkGEMM256":                 2000,
		"BenchmarkDist/w2/ring/full/10gbe": 2697368,
	}
	if !maps.Equal(got, want) {
		t.Fatalf("parsed %v, want %v", got, want)
	}
	if _, err := parseBenchOutput(strings.NewReader(events("PASS\n")), "empty"); err == nil {
		t.Fatal("a stream without result lines must be an error")
	}
}

// TestParseReadsPlainTextAndCommittedStreams reads a test binary's plain
// output, as the paired runs produce it, and every committed suite file,
// which `go test -json` wrote.
func TestParseReadsPlainTextAndCommittedStreams(t *testing.T) {
	plain := "goos: linux\nBenchmarkWhatifReplay-2   \t    4312\t    275299 ns/op\t 123.4 Melem/s\t   10 allocs/op\nPASS\n"
	got, err := parseBenchOutput(strings.NewReader(plain), "plain")
	if err != nil {
		t.Fatal(err)
	}
	if !maps.Equal(got, map[string]float64{"BenchmarkWhatifReplay": 275299}) {
		t.Fatalf("plain text parsed as %v", got)
	}
	files, err := filepath.Glob(filepath.Join("..", "..", "BENCH_*.json"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no committed suite files: %v", err)
	}
	for _, path := range files {
		if _, err := parseBenchFile(path); err != nil {
			t.Fatal(err)
		}
	}
}

// paired runs the rounds over canned results: base(j) is the base's j-th
// run of a row (j = 0..rounds) and cur(i) the change's i-th.
func paired(t *testing.T, base, cur func(i int) map[string]float64) map[string]*pairing {
	t.Helper()
	orig := runBench
	t.Cleanup(func() { runBench = orig })
	runs := map[string]int{}
	runBench = func(_ context.Context, b build, args []string) (map[string]float64, error) {
		key := b.name + " " + args[len(args)-1]
		i := runs[key]
		runs[key]++
		if b.name == "base" {
			return base(i), nil
		}
		return cur(i), nil
	}
	var rows []string
	for name := range base(0) {
		rows = append(rows, name)
	}
	for name := range cur(0) {
		if _, ok := base(0)[name]; !ok {
			rows = append(rows, name)
		}
	}
	out, err := runRounds(context.Background(), build{name: "base"}, build{name: "change"}, rows, []string{"-test.run=^$"})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// suiteAt gives rows A, B and C at ns/op 100, 200 and 300, scaled per row
// by scale (nil: 1).
func suiteAt(scale func(name string) float64) map[string]float64 {
	out := map[string]float64{}
	for i, name := range []string{"BenchmarkA", "BenchmarkB", "BenchmarkC"} {
		s := 1.0
		if scale != nil {
			s = scale(name)
		}
		out[name] = float64(100*(i+1)) * s
	}
	return out
}

func TestIdenticalRunsPass(t *testing.T) {
	same := func(int) map[string]float64 { return suiteAt(nil) }
	var out strings.Builder
	if failures := compare(&out, paired(t, same, same), 0.05); len(failures) != 0 {
		t.Fatalf("identical runs failed: %v\n%s", failures, out.String())
	}
	if !regexp.MustCompile(`(?m)^BenchmarkA +\+0\.0% +0\.0% +0/5$`).MatchString(out.String()) {
		t.Fatalf("table does not give the median and the wins:\n%s", out.String())
	}
}

func TestRowSlowerEveryRoundFailsAlone(t *testing.T) {
	base := func(int) map[string]float64 { return suiteAt(nil) }
	cur := func(int) map[string]float64 {
		return suiteAt(func(name string) float64 {
			if name == "BenchmarkB" {
				return 2
			}
			return 0.99
		})
	}
	var out strings.Builder
	failures := compare(&out, paired(t, base, cur), 0.2)
	if len(failures) != 1 || !strings.HasPrefix(failures[0], "BenchmarkB: ns/op +100.0%") {
		t.Fatalf("failures = %v, want BenchmarkB alone", failures)
	}
	if !regexp.MustCompile(`(?m)^BenchmarkA +-1\.0% +0\.0% +5/5$`).MatchString(out.String()) {
		t.Fatalf("a row faster every round must show 5 wins:\n%s", out.String())
	}
}

func TestOneWildRoundDoesNotFailARow(t *testing.T) {
	base := func(int) map[string]float64 { return suiteAt(nil) }
	cur := func(i int) map[string]float64 {
		return suiteAt(func(string) float64 {
			if i == 3 {
				return 3 // a bad minute on the host
			}
			return 1.02
		})
	}
	if failures := compare(io.Discard, paired(t, base, cur), 0.2); len(failures) != 0 {
		t.Fatalf("one wild round of five failed the gate: %v", failures)
	}
}

// TestUnresolvableRowFailsOnItsOwn: the base's six runs of BenchmarkA
// alternate 80 and 120 ns/op, a 40 % spread (IQR over median), while the
// change reads 100 every round. The table prints the spread beside the
// median; past -tol the row fails with its own message, whatever its
// median says, and within -tol it passes. A row that is slower too names
// both. BenchmarkB's base is steady.
func TestUnresolvableRowFailsOnItsOwn(t *testing.T) {
	base := func(j int) map[string]float64 {
		a := 80.0
		if j%2 == 1 {
			a = 120
		}
		return map[string]float64{
			"BenchmarkA": a,
			"BenchmarkB": 100,
		}
	}
	const unresolved = "BenchmarkA: ns/op base spread 40.0% over the 20% tolerance: this host cannot resolve the row"
	for _, c := range []struct {
		name   string
		change float64 // BenchmarkA's ns/op on the change
		tol    float64
		bad    string
	}{
		{"wider than -tol", 100, 0.2, unresolved},
		{"slower too", 200, 0.2, unresolved + "; ns/op +100.0%"},
		{"within -tol", 100, 0.5, ""},
	} {
		cur := func(int) map[string]float64 {
			return map[string]float64{
				"BenchmarkA": c.change,
				"BenchmarkB": 100,
			}
		}
		var out strings.Builder
		failures := compare(&out, paired(t, base, cur), c.tol)
		if got := strings.Join(failures, "; "); got != c.bad {
			t.Errorf("%s: failures = %q, want %q", c.name, got, c.bad)
		}
		if !regexp.MustCompile(`(?m)^BenchmarkA +\S+ +40\.0% +\d/5`).MatchString(out.String()) ||
			!regexp.MustCompile(`(?m)^BenchmarkB +\+0\.0% +0\.0% +0/5$`).MatchString(out.String()) {
			t.Errorf("%s: table does not print each row's base spread:\n%s", c.name, out.String())
		}
		if unresolved := strings.Contains(out.String(), "UNRESOLVED"); unresolved != (c.bad != "") {
			t.Errorf("%s: table marks the row unresolved: %v:\n%s", c.name, unresolved, out.String())
		}
		if regressed := strings.Contains(out.String(), "UNRESOLVED, REGRESSED"); regressed != (c.change > 100) {
			t.Errorf("%s: table marks the row regressed: %v:\n%s", c.name, regressed, out.String())
		}
	}
}

// TestRegressionsBothDirections moves one row's ns/op each way: slower
// than the tolerance fails; faster by any amount passes.
func TestRegressionsBothDirections(t *testing.T) {
	base := func(int) map[string]float64 { return map[string]float64{"BenchmarkX": 1000} }
	for _, c := range []struct {
		name string
		ns   float64
		bad  string
	}{
		{"within tolerance", 1190, ""},
		{"much faster", 100, ""},
		{"slower", 1300, "BenchmarkX: ns/op +30.0%"},
	} {
		cur := func(int) map[string]float64 { return map[string]float64{"BenchmarkX": c.ns} }
		failures := compare(io.Discard, paired(t, base, cur), 0.2)
		if got := strings.Join(failures, "; "); got != c.bad {
			t.Errorf("%s: failures = %q, want %q", c.name, got, c.bad)
		}
	}
}

func TestGateFailsOnMissingBenchmark(t *testing.T) {
	base := func(int) map[string]float64 { return suiteAt(nil) }
	cur := func(int) map[string]float64 {
		s := suiteAt(nil)
		delete(s, "BenchmarkB")
		s["BenchmarkD"] = 10
		return s
	}
	var out strings.Builder
	if failures := compare(&out, paired(t, base, cur), 0); len(failures) != 0 {
		t.Fatalf("ungated comparison failed: %v", failures)
	}
	for _, want := range []string{`(?m)^BenchmarkB +gone$`, `(?m)^BenchmarkD +new$`} {
		if !regexp.MustCompile(want).MatchString(out.String()) {
			t.Fatalf("table does not match %s:\n%s", want, out.String())
		}
	}
	failures := compare(io.Discard, paired(t, base, cur), 0.2)
	if len(failures) != 1 || !strings.HasPrefix(failures[0], "BenchmarkB: missing") {
		t.Fatalf("gate failures = %v, want BenchmarkB missing", failures)
	}
}

func TestRunOrderAlternates(t *testing.T) {
	defer func(orig func(context.Context, build, []string) (map[string]float64, error)) { runBench = orig }(runBench)
	var calls []string
	runs := map[string]float64{}
	runBench = func(_ context.Context, b build, args []string) (map[string]float64, error) {
		row := strings.TrimPrefix(args[len(args)-1], "-test.bench=")
		calls = append(calls, b.name+"@"+b.dir+" "+row)
		// The base reads 100, 120, 140, ... and the change 200: each round
		// must set the change against the mean of its neighbours.
		ns := 200.0
		if b.name == "base" {
			ns = 100 + 20*runs[row]
			runs[row]++
		}
		return map[string]float64{strings.Trim(row, "^$"): ns}, nil
	}
	base, cur := build{name: "base", dir: "/tmp/base"}, build{name: "change", dir: "."}
	rs, err := runRounds(context.Background(), base, cur, []string{"BenchmarkA", "BenchmarkB"}, []string{"-test.run=^$"})
	if err != nil {
		t.Fatal(err)
	}
	var want []string
	for _, row := range []string{"^BenchmarkA$", "^BenchmarkB$"} {
		want = append(want, "base@/tmp/base "+row)
		for i := 0; i < rounds; i++ {
			want = append(want, "change@. "+row, "base@/tmp/base "+row)
		}
	}
	if !slices.Equal(calls, want) {
		t.Fatalf("run order = %v, want %v", calls, want)
	}
	for _, name := range []string{"BenchmarkA", "BenchmarkB"} {
		got := rs[name].ratios
		if len(got) != rounds {
			t.Fatalf("%s: %d ratios, want %d", name, len(got), rounds)
		}
		for i, r := range got {
			if want := 200 / (110 + 20*float64(i)); math.Abs(r-want) > 1e-12 {
				t.Fatalf("%s round %d: ratio %v, want %v", name, i, r, want)
			}
		}
	}
}

// TestRunBenchReadsAMissingRowAsNone runs a binary whose output has no
// result line, as a build that lacks the row prints: no rows, no error.
func TestRunBenchReadsAMissingRowAsNone(t *testing.T) {
	res, err := runBench(context.Background(), build{name: "echo", bin: "echo", dir: "."}, []string{"PASS"})
	if err != nil || len(res) != 0 {
		t.Fatalf("runBench = %v, %v; want no rows and no error", res, err)
	}
}

// TestFailedBaseBuildLeavesNothing runs the command at a revision that
// does not exist: it must fail and remove its temporary directory.
func TestFailedBaseBuildLeavesNothing(t *testing.T) {
	tmp := t.TempDir()
	t.Setenv("TMPDIR", tmp)
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(filepath.Join("..", "..")); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := os.Chdir(wd); err != nil {
			t.Error(err)
		}
	}()
	if err := run(context.Background(), "whatif", "no-such-revision", "1x", 0.2); err == nil {
		t.Fatal("a base revision that does not exist must fail")
	}
	if left, _ := os.ReadDir(tmp); len(left) != 0 {
		t.Fatalf("left behind in the temporary directory: %v", left)
	}
}

// TestPatternFromBaseline holds each row's -test.bench pattern to its
// row: the testing package matches a pattern level by level, and every
// level must select the row's name there and no other name of the
// baseline.
func TestPatternFromBaseline(t *testing.T) {
	baseline := []string{
		"BenchmarkGEMM256",
		"BenchmarkGEMM256x",
		"BenchmarkGEMMTier/avx2/256",
		"BenchmarkGEMMTier/avx2/2560",
		"BenchmarkGEMMTier/ref/1024",
		"BenchmarkServeBatched/cap64",
		"BenchmarkDist/w2/ps-sync/fp16/1gbe",
	}
	if got, want := rowPattern("BenchmarkGEMMTier/ref/1024"), `^BenchmarkGEMMTier$/^ref$/^1024$`; got != want {
		t.Fatalf("pattern = %s, want %s", got, want)
	}
	matches := func(pattern, name string) bool {
		pl, nl := strings.Split(pattern, "/"), strings.Split(name, "/")
		for i, p := range pl {
			if i >= len(nl) || !regexp.MustCompile(p).MatchString(nl[i]) {
				return false
			}
		}
		return true
	}
	for _, row := range baseline {
		for _, other := range baseline {
			if got := matches(rowPattern(row), other); got != (row == other) {
				t.Errorf("pattern of %s matches %s: %t", row, other, got)
			}
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
