// Command benchcompare re-runs one tracked benchmark suite and prints
// old-vs-new deltas against its committed `go test -json` baseline.
// Plain stdlib only.
//
// A suite is its baseline file: -suite X reads BENCH_X.json and runs
// exactly the top-level benchmarks named in it, so that file is the only
// list of what the suite tracks. The suites are numeric (the default),
// serve, prof, dist and whatif, recorded by `make bench`, `bench-serve`,
// `bench-prof`, `bench-dist` and `bench-whatif`.
//
// Usage:
//
//	go run ./cmd/benchcompare [-suite numeric] [-benchtime 1s]
//	go run ./cmd/benchcompare -suite serve -new saved.json   # compare a saved run
//	go run ./cmd/benchcompare -tol 0.2                       # CI gate: exit 1 on regression
//	go run ./cmd/benchcompare -suite whatif -errbound 20     # CI gate: prediction quality
//
// -tol fails the run when any benchmark's ns/op rises, or any throughput
// metric falls, by more than the given fraction, or when a baseline
// benchmark is gone from the fresh run. Improvements and new benchmarks
// never fail it. -errbound fails any pred-err-pct metric (the what-if
// ground-truth cells) above the bound, whatever the baseline said; replay
// is deterministic, so that gate has no noise.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"regexp"
	"slices"
	"sort"
	"strconv"
	"strings"
)

// benchResult is one benchmark line's parsed metrics, keyed by unit
// ("ns/op", "GFLOP/s", "samples/s", "B/op", "allocs/op", ...).
type benchResult struct {
	name    string
	iters   int64
	metrics map[string]float64
}

// testEvent is the subset of the `go test -json` event stream we read.
type testEvent struct {
	Action string `json:"Action"`
	Output string `json:"Output"`
}

// benchLine matches a benchmark result line: name, iteration count, then
// value/unit pairs. The -N GOMAXPROCS suffix is stripped so runs from
// different machines compare by benchmark name.
var benchLine = regexp.MustCompile(`^(Benchmark\S+?)(?:-\d+)?\s+(\d+)\s+(.*)$`)

// parseBenchOutput extracts benchmark results from a `go test -json`
// stream read from src. Output events are concatenated before
// line-splitting: the test runner may emit one logical result line as
// several events.
func parseBenchOutput(r io.Reader, src string) (map[string]benchResult, error) {
	var text strings.Builder
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for sc.Scan() {
		var ev testEvent
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			continue // tolerate non-JSON lines (truncated or hand-edited files)
		}
		if ev.Action == "output" {
			text.WriteString(ev.Output)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("%s: %w", src, err)
	}
	out := make(map[string]benchResult)
	for _, line := range strings.Split(text.String(), "\n") {
		m := benchLine.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		iters, err := strconv.ParseInt(m[2], 10, 64)
		if err != nil {
			continue
		}
		res := benchResult{name: m[1], iters: iters, metrics: map[string]float64{}}
		fields := strings.Fields(m[3])
		for i := 0; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				continue
			}
			res.metrics[fields[i+1]] = v
		}
		out[res.name] = res
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%s: no benchmark lines found", src)
	}
	return out, nil
}

func parseBenchFile(path string) (map[string]benchResult, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return parseBenchOutput(f, path)
}

// runBenches runs the root benchmarks matching pattern and parses their
// results.
func runBenches(pattern, benchtime string) (map[string]benchResult, error) {
	cmd := exec.Command("go", "test", "-run", "^$", "-bench", pattern,
		"-benchtime", benchtime, "-benchmem", "-json", ".")
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	fmt.Fprintf(os.Stderr, "running: %s\n", strings.Join(cmd.Args, " "))
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("go test: %w", err)
	}
	return parseBenchOutput(&stdout, "go test output")
}

// delta formats a percentage change, signed.
func delta(old, new float64) string {
	if old == 0 {
		return "   n/a"
	}
	return fmt.Sprintf("%+.1f%%", (new-old)/old*100)
}

// fmtMetric renders a metric value compactly.
func fmtMetric(v float64, unit string) string {
	switch {
	case unit == "ns/op" || v >= 1000:
		return fmt.Sprintf("%.0f", v)
	default:
		return fmt.Sprintf("%.3f", v)
	}
}

// rateUnits are throughput metrics where higher is better; they get their
// own columns after ns/op.
var rateUnits = []string{"GFLOP/s", "samples/s", "Melem/s", "MB/s"}

// benchPattern is the -bench regexp that runs exactly the top-level
// benchmarks a baseline names, with all of their sub-benchmarks.
func benchPattern(baseline map[string]benchResult) string {
	var names []string
	for name := range baseline {
		top, _, _ := strings.Cut(name, "/")
		names = append(names, regexp.QuoteMeta(top))
	}
	sort.Strings(names)
	return "^(" + strings.Join(slices.Compact(names), "|") + ")$"
}

// compare writes the old-vs-new table to w and returns one line per
// benchmark that fails the gate. A tol or errBound of 0 disables that
// check; a baseline benchmark missing from cur is reported as gone, and
// fails when either check is on.
func compare(w io.Writer, old, cur map[string]benchResult, tol, errBound float64) []string {
	names := make([]string, 0, len(cur))
	for name := range cur {
		names = append(names, name)
	}
	sort.Strings(names)

	var failures []string
	fmt.Fprintf(w, "%-44s %14s %14s %8s   %s\n", "benchmark", "old ns/op", "new ns/op", "delta", "rates (old -> new)")
	for _, name := range names {
		n := cur[name]
		o, haveOld := old[name]
		nsNew := n.metrics["ns/op"]
		var bad []string
		if tol > 0 && haveOld {
			bad = regressions(o, n, tol)
		}
		// The error bound is absolute, so it applies to new cells too.
		if errBound > 0 {
			if ep, ok := n.metrics["pred-err-pct"]; ok && ep > errBound {
				bad = append(bad, fmt.Sprintf("pred-err-pct %.1f exceeds bound %.1f", ep, errBound))
			}
		}
		mark := ""
		if len(bad) > 0 {
			mark = "   << REGRESSED"
			failures = append(failures, fmt.Sprintf("%s: %s", name, strings.Join(bad, ", ")))
		}
		if !haveOld {
			fmt.Fprintf(w, "%-44s %14s %14s %8s   %s%s\n", name, "-", fmtMetric(nsNew, "ns/op"), "new", rateCols(benchResult{}, n), mark)
			continue
		}
		nsOld := o.metrics["ns/op"]
		fmt.Fprintf(w, "%-44s %14s %14s %8s   %s%s\n",
			name, fmtMetric(nsOld, "ns/op"), fmtMetric(nsNew, "ns/op"), delta(nsOld, nsNew), rateCols(o, n), mark)
	}
	// A baseline benchmark that vanished (renamed or removed) would
	// otherwise read as "still tracked".
	var gone []string
	for name := range old {
		if _, ok := cur[name]; !ok {
			gone = append(gone, name)
		}
	}
	sort.Strings(gone)
	for _, name := range gone {
		fmt.Fprintf(w, "%-44s %14s %14s %8s\n", name, fmtMetric(old[name].metrics["ns/op"], "ns/op"), "-", "gone")
		if tol > 0 || errBound > 0 {
			failures = append(failures, name+": missing from the fresh run")
		}
	}
	return failures
}

func main() {
	suite := flag.String("suite", "numeric", "tracked `suite`: run the benchmarks BENCH_<suite>.json names and compare against it")
	newPath := flag.String("new", "", "compare this saved `file` instead of re-running benchmarks")
	benchtime := flag.String("benchtime", "1s", "benchtime for the fresh run")
	tol := flag.Float64("tol", 0, "regression `fraction` the gate allows before failing; 0 disables the gate")
	errBound := flag.Float64("errbound", 0, "absolute `bound` on pred-err-pct metrics; any cell above it fails the gate; 0 disables")
	flag.Parse()
	if *tol < 0 || *errBound < 0 {
		fatal(fmt.Errorf("-tol and -errbound must be >= 0"))
	}

	old, err := parseBenchFile("BENCH_" + *suite + ".json")
	if err != nil {
		fatal(err)
	}
	var cur map[string]benchResult
	if *newPath != "" {
		cur, err = parseBenchFile(*newPath)
	} else {
		cur, err = runBenches(benchPattern(old), *benchtime)
	}
	if err != nil {
		fatal(err)
	}

	w := bufio.NewWriter(os.Stdout)
	failures := compare(w, old, cur, *tol, *errBound)
	// The table must land before the verdict.
	if err := w.Flush(); err != nil {
		fatal(err)
	}
	if *tol == 0 && *errBound == 0 {
		return
	}
	if len(failures) > 0 {
		fmt.Fprintf(os.Stderr, "benchcompare: %d benchmark(s) failed the gate:\n", len(failures))
		for _, f := range failures {
			fmt.Fprintln(os.Stderr, " ", f)
		}
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "benchcompare: gate passed across %d benchmarks", len(cur))
	if *tol > 0 {
		fmt.Fprintf(os.Stderr, " (within %.0f%% of baseline)", *tol*100)
	}
	if *errBound > 0 {
		fmt.Fprintf(os.Stderr, " (prediction error within %.0f%%)", *errBound)
	}
	fmt.Fprintln(os.Stderr)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchcompare:", err)
	os.Exit(1)
}

// regressions reports which of a benchmark's metrics moved the wrong way
// by more than the tolerated fraction: ns/op up (slower), or any
// throughput metric down. Improvements pass regardless of size.
func regressions(o, n benchResult, tol float64) []string {
	var bad []string
	if ov, nv := o.metrics["ns/op"], n.metrics["ns/op"]; ov > 0 && nv > ov*(1+tol) {
		bad = append(bad, fmt.Sprintf("ns/op %s", delta(ov, nv)))
	}
	for _, unit := range rateUnits {
		ov, okOld := o.metrics[unit]
		nv, okNew := n.metrics[unit]
		if okOld && okNew && ov > 0 && nv < ov*(1-tol) {
			bad = append(bad, fmt.Sprintf("%s %s", unit, delta(ov, nv)))
		}
	}
	return bad
}

// rateCols renders throughput metrics plus the allocation count, old -> new.
// pred-err-pct rides along so the whatif table leads with its headline
// metric (it is gated absolutely via -errbound, not as a rate).
func rateCols(o, n benchResult) string {
	var parts []string
	if nv, ok := n.metrics["pred-err-pct"]; ok {
		if ov, ok := o.metrics["pred-err-pct"]; ok {
			parts = append(parts, fmt.Sprintf("pred-err %.1f%% -> %.1f%%", ov, nv))
		} else {
			parts = append(parts, fmt.Sprintf("pred-err %.1f%%", nv))
		}
	}
	for _, unit := range rateUnits {
		nv, ok := n.metrics[unit]
		if !ok {
			continue
		}
		if ov, ok := o.metrics[unit]; ok {
			parts = append(parts, fmt.Sprintf("%s %s -> %s (%s)", unit, fmtMetric(ov, unit), fmtMetric(nv, unit), delta(ov, nv)))
		} else {
			parts = append(parts, fmt.Sprintf("%s %s", unit, fmtMetric(nv, unit)))
		}
	}
	if av, ok := n.metrics["allocs/op"]; ok {
		parts = append(parts, fmt.Sprintf("%.0f allocs", av))
	}
	return strings.Join(parts, ", ")
}
