package main

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

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
