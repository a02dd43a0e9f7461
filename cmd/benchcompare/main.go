// Command benchcompare runs one tracked benchmark suite on two builds side
// by side, the working tree against a base revision, and gates on their
// paired ratios. Plain stdlib only.
//
// A suite is named by its file: -suite X runs exactly the benchmark rows
// BENCH_X.json names, so that file is the only list of what the suite
// tracks. The suites are numeric (the default), serve, prof, dist and
// whatif, recorded by `make bench`, `bench-serve`, `bench-prof`,
// `bench-dist` and `bench-whatif`.
//
// The base revision (-base, default HEAD) is exported with `git archive`
// into a temporary directory, and the root test binary is built there and
// in the working tree. The two binaries then run alternately, one
// benchmark row at a time, each in its own tree so that testdata/
// resolves: five runs of the change, each between two runs of the base.
// A level recorded an hour earlier says little on a host whose speed
// moves by tens of percent from one hour to the next, and even a whole
// suite run half a minute after the other build's moves by as much; the
// ratio of runs of one row, seconds apart, is what this command compares.
//
// Usage:
//
//	go run ./cmd/benchcompare [-suite numeric] [-base HEAD] [-benchtime 1s]
//	go run ./cmd/benchcompare -tol 0.2    # gate: exit 1 on regression
//
// For each benchmark the table gives the median over the five rounds of
// the change's ns/op over the base's (the mean of the base runs either
// side), the spread of the base's own six runs (IQR over median) and the
// number of rounds the change was faster. ns/op is the one gated number:
// every rate a row reports besides is a constant over its ns/op, and
// BenchmarkDist, whose run includes setup, reports its steady step as its
// ns/op. -tol fails the run when a row's median rises by more than the
// given fraction, when the base's spread exceeds it (the host cannot
// resolve the row), or when a benchmark of the base is gone from the
// change. Improvements and new benchmarks never fail it.
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"syscall"

	"tbd/internal/stats"
)

// rounds is how many times the change runs each row; the base runs it
// once more.
const rounds = 5

// testEvent is the subset of the `go test -json` event stream we read.
type testEvent struct {
	Action string `json:"Action"`
	Output string `json:"Output"`
}

// benchLine matches a benchmark result line up to its ns/op, which the
// testing package prints first after the iteration count: the name, then
// the value. The -N GOMAXPROCS suffix is stripped so runs from different
// machines compare by benchmark name.
var benchLine = regexp.MustCompile(`^(Benchmark\S+?)(?:-\d+)?\s+\d+\s+(\S+) ns/op`)

// parseBenchOutput extracts each benchmark's ns/op from a test binary's
// output read from src: plain text, or a `go test -json` event stream.
// Output events are concatenated before line-splitting: the test runner
// may emit one logical result line as several events.
func parseBenchOutput(r io.Reader, src string) (map[string]float64, error) {
	var text strings.Builder
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for sc.Scan() {
		var ev testEvent
		switch {
		case json.Unmarshal(sc.Bytes(), &ev) != nil:
			text.Write(sc.Bytes())
			text.WriteByte('\n')
		case ev.Action == "output":
			text.WriteString(ev.Output)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("%s: %w", src, err)
	}
	out := make(map[string]float64)
	for _, line := range strings.Split(text.String(), "\n") {
		m := benchLine.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		if ns, err := strconv.ParseFloat(m[2], 64); err == nil {
			out[m[1]] = ns
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%s: %w", src, errNoBenchmarks)
	}
	return out, nil
}

func parseBenchFile(path string) (map[string]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return parseBenchOutput(f, path)
}

// rowPattern is the -test.bench regexp that runs exactly one benchmark
// row: each level of its name quoted and anchored.
func rowPattern(name string) string {
	levels := strings.Split(name, "/")
	for i, l := range levels {
		levels[i] = "^" + regexp.QuoteMeta(l) + "$"
	}
	return strings.Join(levels, "/")
}

// build is one test binary and the tree it runs in.
type build struct {
	name, bin, dir string
}

// errNoBenchmarks is a test output without one result line.
var errNoBenchmarks = errors.New("no benchmark lines found")

// runBench runs one build's test binary with args and parses each row's
// ns/op; a run that reports no row (the build lacks it) returns none.
// Tests replace it with canned results.
var runBench = func(ctx context.Context, b build, args []string) (map[string]float64, error) {
	out, err := command(ctx, b.dir, b.bin, args...).Output()
	if err != nil {
		return nil, fmt.Errorf("%s: %w", b.name, err)
	}
	res, err := parseBenchOutput(bytes.NewReader(out), b.name)
	if errors.Is(err, errNoBenchmarks) {
		return nil, nil
	}
	return res, err
}

// pairing is one row's paired runs: the change's ns/op over the base's in
// every round both reported it, the base's own ns/op in each of its runs,
// and whether each build reported the row at all.
type pairing struct {
	ratios, base  []float64
	inBase, inCur bool
}

// runRounds runs each row's two builds alternately, base first and last
// (B C B C … C B), the runs back to back so that they see the same host
// a second or two apart. Round i sets the change's i-th run against the
// mean of the base runs either side of it: a drift over the row's runs
// cancels, and so does a head start for the first or the second run of
// a pair, which an odd number of flipped pairs would hand to one side.
func runRounds(ctx context.Context, base, cur build, rows, args []string) (map[string]*pairing, error) {
	out := make(map[string]*pairing, len(rows))
	for k, row := range rows {
		fmt.Fprintf(os.Stderr, "row %d/%d: %s\n", k+1, len(rows), row)
		p := &pairing{}
		out[row] = p
		a := append(args, "-test.bench="+rowPattern(row))
		before, err := runBench(ctx, base, a)
		if err != nil {
			return nil, err
		}
		if o, ok := before[row]; ok {
			p.base = append(p.base, o)
		}
		for range rounds {
			c, err := runBench(ctx, cur, a)
			if err != nil {
				return nil, err
			}
			after, err := runBench(ctx, base, a)
			if err != nil {
				return nil, err
			}
			o0, ok0 := before[row]
			o1, ok1 := after[row]
			v, ok := c[row]
			if ok1 {
				p.base = append(p.base, o1)
			}
			p.inBase = p.inBase || ok0 || ok1
			p.inCur = p.inCur || ok
			if ok0 && ok1 && ok {
				p.ratios = append(p.ratios, 2*v/(o0+o1))
			}
			before = after
		}
	}
	return out, nil
}

// pct formats a ratio as a signed percentage change.
func pct(ratio float64) string { return fmt.Sprintf("%+.1f%%", (ratio-1)*100) }

// compare writes the paired table to w and returns one line per row
// that fails the gate: its median ns/op ratio above 1+tol (REGRESSED), or
// the base's own runs spread wider than tol (IQR over median), so that
// the host cannot resolve the row whatever its median says (UNRESOLVED),
// or both. A tol of 0 disables the gate; a row the change never reports
// is gone, and fails when the gate is on.
func compare(w io.Writer, rows map[string]*pairing, tol float64) []string {
	names := make([]string, 0, len(rows))
	for name := range rows {
		names = append(names, name)
	}
	sort.Strings(names)
	var failures []string
	fmt.Fprintf(w, "%-44s %10s %9s %6s\n", "benchmark", "ns/op", "base iqr", "wins")
	for _, name := range names {
		p := rows[name]
		switch {
		case !p.inCur:
			fmt.Fprintf(w, "%-44s %10s\n", name, "gone")
			if tol > 0 {
				failures = append(failures, name+": missing from the change")
			}
			continue
		case !p.inBase:
			fmt.Fprintf(w, "%-44s %10s\n", name, "new")
			continue
		case len(p.ratios) == 0:
			fmt.Fprintf(w, "%-44s %10s\n", name, "unpaired")
			continue
		}
		wins := 0
		for _, x := range p.ratios {
			if x < 1 {
				wins++
			}
		}
		med, iqr := stats.Median(p.ratios), stats.Spread(p.base)
		var marks, why []string
		if tol > 0 && iqr > tol {
			marks = append(marks, "UNRESOLVED")
			why = append(why, fmt.Sprintf("ns/op base spread %.1f%% over the %.0f%% tolerance: this host cannot resolve the row", 100*iqr, 100*tol))
		}
		if tol > 0 && med > 1+tol {
			marks = append(marks, "REGRESSED")
			why = append(why, "ns/op "+pct(med))
		}
		mark := ""
		if len(why) > 0 {
			mark = "   << " + strings.Join(marks, ", ")
			failures = append(failures, name+": "+strings.Join(why, "; "))
		}
		fmt.Fprintf(w, "%-44s %10s %8.1f%% %4d/%d%s\n", name, pct(med), 100*iqr, wins, len(p.ratios), mark)
	}
	return failures
}

// command is exec.CommandContext with the working directory set and the
// child's stderr passed through.
func command(ctx context.Context, dir, name string, args ...string) *exec.Cmd {
	cmd := exec.CommandContext(ctx, name, args...)
	cmd.Dir = dir
	cmd.Stderr = os.Stderr
	return cmd
}

// buildPair exports rev into tmp and builds the root test binary there
// and in the working tree (the current directory). Both builds trim
// their paths, so the same source gives the same binary.
func buildPair(ctx context.Context, rev, tmp string) (base, cur build, err error) {
	base = build{name: "base " + rev, bin: filepath.Join(tmp, "base.test"), dir: filepath.Join(tmp, "base")}
	cur = build{name: "change", bin: filepath.Join(tmp, "change.test"), dir: "."}
	archive := filepath.Join(tmp, "base.tar")
	if err := os.Mkdir(base.dir, 0o755); err != nil {
		return base, cur, err
	}
	for _, step := range []*exec.Cmd{
		command(ctx, ".", "git", "archive", "--format=tar", "-o", archive, rev),
		command(ctx, ".", "tar", "-xf", archive, "-C", base.dir),
		command(ctx, base.dir, "go", "test", "-c", "-trimpath", "-o", base.bin, "."),
		command(ctx, cur.dir, "go", "test", "-c", "-trimpath", "-o", cur.bin, "."),
	} {
		fmt.Fprintf(os.Stderr, "running: %s\n", strings.Join(step.Args, " "))
		if err := step.Run(); err != nil {
			return base, cur, fmt.Errorf("%s: %w", strings.Join(step.Args[:2], " "), err)
		}
	}
	return base, cur, nil
}

// run builds both trees in a temporary directory it always removes, runs
// the rounds and prints the table; the error is the verdict.
func run(ctx context.Context, suite, rev, benchtime string, tol float64) error {
	tracked, err := parseBenchFile("BENCH_" + suite + ".json")
	if err != nil {
		return err
	}
	tmp, err := os.MkdirTemp("", "benchcompare-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)
	base, cur, err := buildPair(ctx, rev, tmp)
	if err != nil {
		return err
	}
	rows := make([]string, 0, len(tracked))
	for name := range tracked {
		rows = append(rows, name)
	}
	sort.Strings(rows)
	paired, err := runRounds(ctx, base, cur, rows, []string{"-test.run=^$", "-test.benchtime=" + benchtime})
	if err != nil {
		return err
	}

	w := bufio.NewWriter(os.Stdout)
	failures := compare(w, paired, tol)
	// The table must land before the verdict.
	if err := w.Flush(); err != nil {
		return err
	}
	if len(failures) > 0 {
		return fmt.Errorf("%d benchmark(s) failed the gate against %s:\n  %s", len(failures), rev, strings.Join(failures, "\n  "))
	}
	if tol > 0 {
		fmt.Fprintf(os.Stderr, "benchcompare: gate passed: no median over %d rounds worse than %.0f%% against %s\n", rounds, tol*100, rev)
	}
	return nil
}

func main() {
	suite := flag.String("suite", "numeric", "tracked `suite`: run the benchmarks BENCH_<suite>.json names")
	rev := flag.String("base", "HEAD", "git `revision` the working tree is compared against")
	benchtime := flag.String("benchtime", "1s", "benchtime of each run")
	tol := flag.Float64("tol", 0, "regression `fraction` the gate allows before failing; 0 disables the gate")
	flag.Parse()
	if *tol < 0 {
		fmt.Fprintln(os.Stderr, "benchcompare: -tol must be >= 0")
		os.Exit(2)
	}
	// An interrupt cancels the children instead of killing this process,
	// so the temporary directory is still removed.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	err := run(ctx, *suite, *rev, *benchtime, *tol)
	stop()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchcompare:", err)
		os.Exit(1)
	}
}
