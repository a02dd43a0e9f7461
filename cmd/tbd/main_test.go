package main

import (
	"bytes"
	"context"
	"errors"
	"hash/fnv"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"tbd/internal/models"
	"tbd/internal/prof"
	"tbd/internal/whatif"
)

// The CLI is tested end to end against a compiled binary: TestMain builds
// it once, and each test asserts on real stdout.

var binPath string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "tbd-cli")
	if err != nil {
		os.Exit(1)
	}
	defer os.RemoveAll(dir)
	binPath = filepath.Join(dir, "tbd")
	build := exec.Command("go", "build", "-o", binPath, ".")
	build.Stderr = os.Stderr
	if err := build.Run(); err != nil {
		os.Exit(1)
	}
	os.Exit(m.Run())
}

// run executes the binary and returns stdout; fatal on error unless
// wantErr.
func run(t *testing.T, wantErr bool, args ...string) string {
	t.Helper()
	out, err := exec.Command(binPath, args...).Output()
	if wantErr {
		if err == nil {
			t.Fatalf("tbd %v succeeded, want failure", args)
		}
		return string(out)
	}
	if err != nil {
		t.Fatalf("tbd %v: %v", args, err)
	}
	return string(out)
}

// runRefused executes the binary and requires a refusal within 5 s: exit
// status 1 (a panic exits 2) with want named on stderr.
func runRefused(t *testing.T, want string, args ...string) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	var stderr bytes.Buffer
	cmd := exec.CommandContext(ctx, binPath, args...)
	cmd.Stderr = &stderr
	err := cmd.Run()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 1 || !strings.Contains(stderr.String(), want) {
		t.Fatalf("tbd %v: %v, stderr %q; want exit status 1 naming %q", args, err, stderr.String(), want)
	}
}

func TestCLIList(t *testing.T) {
	out := run(t, false, "list")
	for _, want := range []string{"ResNet-50", "Deep Speech 2", "A3C", "YOLO9000", "Extensions"} {
		if !strings.Contains(out, want) {
			t.Fatalf("list missing %q:\n%s", want, out)
		}
	}
}

func TestCLIProfile(t *testing.T) {
	out := run(t, false, "profile", "-model", "Seq2Seq", "-framework", "MXNet", "-batch", "64")
	for _, want := range []string{"Sockeye", "throughput", "GPU compute util", "kernel launches"} {
		if !strings.Contains(out, want) {
			t.Fatalf("profile missing %q:\n%s", want, out)
		}
	}
}

func TestCLIRunTable(t *testing.T) {
	out := run(t, false, "run", "table4")
	if !strings.Contains(out, "Quadro P4000") || !strings.Contains(out, "547.6") {
		t.Fatalf("table4 output wrong:\n%s", out)
	}
	csv := run(t, false, "run", "-csv", "fig10")
	if !strings.Contains(csv, "series,x,y") {
		t.Fatalf("csv mode broken:\n%s", csv)
	}
}

func TestCLIObservations(t *testing.T) {
	out := run(t, false, "observations")
	if strings.Count(out, "[HOLDS]") != 13 {
		t.Fatalf("want 13 holding observations:\n%s", out)
	}
	if strings.Contains(out, "[FAILS]") {
		t.Fatalf("an observation failed:\n%s", out)
	}
}

func TestCLIMemoryAndKernels(t *testing.T) {
	mem := run(t, false, "memory", "-model", "ResNet-50", "-framework", "MXNet", "-batch", "32")
	if !strings.Contains(mem, "feature maps") {
		t.Fatalf("memory output wrong:\n%s", mem)
	}
	ks := run(t, false, "kernels", "-model", "ResNet-50", "-framework", "TensorFlow", "-batch", "32")
	if !strings.Contains(ks, "bn_bw_1C11_kernel_new") {
		t.Fatalf("kernels output missing bn kernel:\n%s", ks)
	}
}

func TestCLIErrors(t *testing.T) {
	run(t, true, "run", "nope")
	run(t, true, "profile", "-model", "NoSuchModel")
	run(t, true, "definitely-not-a-command")
	// Flags after the experiment id are rejected with guidance.
	run(t, true, "run", "table4", "-csv")
	runRefused(t, "kernel count must be non-negative", "kernels", "-n", "-1")
}

// TestCLITwinTraceReplaysToIdentity reads the file `tbd twin -trace-out`
// writes with the one trace reader and replays it under a scenario with
// no clauses: the prediction is the recording, to the last bit.
func TestCLITwinTraceReplaysToIdentity(t *testing.T) {
	path := filepath.Join(t.TempDir(), "twin.json")
	out := run(t, false, "twin", "-model", "ResNet-50", "-steps", "3", "-parallel", "2", "-trace-out", path)
	for _, want := range []string{"Self ms", "unattributed", "trace (",
		"Peak memory watermark", "Go heap", "heap live", "GC goal", "GC cycles", "objects per step"} {
		if !strings.Contains(out, want) {
			t.Fatalf("twin -trace-out output missing %q:\n%s", want, out)
		}
	}
	tr, err := prof.ReadTraceFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Meta.Model != "ResNet-50" || tr.Meta.Steps != 3 || tr.Meta.KernelTier == "" {
		t.Fatalf("trace meta %+v", tr.Meta)
	}
	sc, err := whatif.ParseScenario("")
	if err != nil {
		t.Fatal(err)
	}
	p, err := whatif.Replay(tr, sc)
	if err != nil {
		t.Fatal(err)
	}
	if p.Steps != 3 || p.PredictedStepUs != p.BaselineStepUs || p.PredictedWallUs != p.BaselineWallUs {
		t.Fatalf("identity replay: %d steps, step %v -> %v us, wall %v -> %v us",
			p.Steps, p.BaselineStepUs, p.PredictedStepUs, p.BaselineWallUs, p.PredictedWallUs)
	}
}

// TestCLIEveryTwinTraceReplaysItsSteps records five steps of every twin
// with `tbd twin -trace-out`: the trace carries the twin's declared batch,
// and the what-if replay finds five steps in it (A3C: five per worker, of
// three).
func TestCLIEveryTwinTraceReplaysItsSteps(t *testing.T) {
	sc, err := whatif.ParseScenario("speedup=gemm*:2")
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range append(models.Suite(), models.Extensions()...) {
		path := filepath.Join(t.TempDir(), "twin.json")
		run(t, false, "twin", "-model", m.Name, "-steps", "5", "-parallel", "1", "-trace-out", path)
		tr, err := prof.ReadTraceFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if tr.Meta.Batch != m.Twin.Batch {
			t.Errorf("%s: trace records batch %d, the twin trains on %d", m.Name, tr.Meta.Batch, m.Twin.Batch)
		}
		p, err := whatif.Replay(tr, sc)
		if err != nil {
			t.Fatal(err)
		}
		want := 5
		if m.Name == "A3C" {
			want *= 3
		}
		if p.Steps != want {
			t.Errorf("%s: replay found %d steps, want %d", m.Name, p.Steps, want)
		}
	}
}

// parentCLIHashes hold the FNV-64a hash of each simulated-plane command's
// stdout, recorded on the commit before the Figure 9 breakdown moved into
// prof and the root API's result types became aliases. The three scaling
// outputs were recorded again when sim.Scale moved onto the exchange
// schedule the what-if predictor runs.
var parentCLIHashes = []struct {
	args []string
	hash uint64
}{
	{[]string{"list"}, 0xe0542b1178154230},
	{[]string{"profile"}, 0x9aabde9795866711},
	{[]string{"memory"}, 0xfdaa648d721ea4d4},
	{[]string{"kernels"}, 0x4479228f89b1f0a0},
	{[]string{"scaling"}, 0x555c489de57657a1}, // Figure 10 on internal/exchange
	{[]string{"phases"}, 0xda7e33430c82f5c1},
	{[]string{"offload", "-batch", "64", "-target-gb", "2"}, 0xabb3e676ab763dd5},
	{[]string{"workspace"}, 0x5ea55d922543101},
	{[]string{"trace"}, 0xa8866c2ea73ed8d9},
	{[]string{"analyze"}, 0x63f575c66b5b3ec8},
	{[]string{"observations"}, 0xa4f3069e05e56068}, // Observation 13 on internal/exchange
	{[]string{"run", "table1"}, 0x36b81c34ae42f75d},
	{[]string{"run", "table2"}, 0x14906582e3b234f7},
	{[]string{"run", "table3"}, 0xa6ecee8998c08649},
	{[]string{"run", "table4"}, 0x37788109cab8c48},
	{[]string{"run", "fig4"}, 0x7bd4d81e32d6916b},
	{[]string{"run", "fig5"}, 0x9adc401a92a3a0f3},
	{[]string{"run", "fig6"}, 0x18d06708d92d15be},
	{[]string{"run", "table5"}, 0xf185fbaf2aed840c},
	{[]string{"run", "table6"}, 0x7c89e417659bedd1},
	{[]string{"run", "fig7"}, 0xd17ed9ba8234cf4b},
	{[]string{"run", "fig8"}, 0xda24a09e6f1f4bdb},
	{[]string{"run", "fig9"}, 0xf6c658dddba899f4},
	{[]string{"run", "fig10"}, 0x4b41f05c7a0bf68d}, // Figure 10 on internal/exchange
	{[]string{"whatif", "-json", "-trace", "../../testdata/whatif/twin_avx2.json", "-scenario", "offload=1MB"}, 0x6c907e9aa3769fa0},
}

// TestCLISimulatedPlaneMatchesParentCommit holds every read-only
// simulated-plane command, every paper artifact but the numeric fig2 and
// a what-if replay's JSON to the bytes the parent commit printed.
func TestCLISimulatedPlaneMatchesParentCommit(t *testing.T) {
	for _, c := range parentCLIHashes {
		h := fnv.New64a()
		h.Write([]byte(run(t, false, c.args...)))
		if got := h.Sum64(); got != c.hash {
			t.Errorf("tbd %s: stdout hash %#x, parent commit %#x", strings.Join(c.args, " "), got, c.hash)
		}
	}
}
