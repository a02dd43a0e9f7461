package trace

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"tbd/internal/prof"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata golden files")

// goldenPath is the pinned JSON shape every Chrome-trace producer must
// emit. Both front ends — the raw writer and the live profiler exporter —
// are driven with equivalent events and must produce byte-identical
// output.
const goldenPath = "testdata/chrome_golden.json"

// edgesGoldenPath pins the annotated shape: span/parent/bytes args on
// every slice and flow arrows into comm spans.
const edgesGoldenPath = "testdata/chrome_edges_golden.json"

func checkGolden(t *testing.T, path string, got []byte) {
	t.Helper()
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (run with -update-golden to create): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("Chrome trace JSON diverged from golden.\ngot:  %s\nwant: %s", got, want)
	}
}

func TestChromeWriterGolden(t *testing.T) {
	var cw ChromeWriter
	cw.Complete("gemm", "kernel", 0.0015, 0.000250, 0, 0)
	cw.Complete("conv2d.fwd", "kernel", 0.002, 0.001, 0, 0)
	if cw.Len() != 2 {
		t.Fatalf("Len = %d", cw.Len())
	}
	var buf bytes.Buffer
	if err := cw.Write(&buf); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, goldenPath, buf.Bytes())
}

// TestWriteProfChromeGolden drives the live-profiler exporter with records
// equivalent to the golden fixture.
func TestWriteProfChromeGolden(t *testing.T) {
	recs := []prof.Record{
		{Name: "gemm", Cat: prof.CatKernel, Start: 1500 * time.Microsecond, Dur: 250 * time.Microsecond},
		{Name: "conv2d.fwd", Cat: prof.CatKernel, Start: 2 * time.Millisecond, Dur: time.Millisecond},
	}
	var buf bytes.Buffer
	if err := WriteProfChrome(&buf, recs); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, goldenPath, buf.Bytes())
}

func TestChromeWriterEmpty(t *testing.T) {
	var cw ChromeWriter
	var buf bytes.Buffer
	if err := cw.Write(&buf); err != nil {
		t.Fatal(err)
	}
	if got := buf.String(); got != "{\"traceEvents\":[]}\n" {
		t.Fatalf("empty trace = %q", got)
	}
}

// TestWriteProfChromeEdgesGolden drives the exporter with records that
// carry dependence edges: every slice gains span/parent args, a span that
// moved bytes shows them, and the comm span under the sync phase gets a
// flow arrow from its parent.
func TestWriteProfChromeEdgesGolden(t *testing.T) {
	recs := []prof.Record{
		{ID: 1, Parent: 0, Name: "step", Cat: prof.CatPhase, Start: 0, Dur: 4 * time.Millisecond},
		{ID: 2, Parent: 1, Name: "phase.forward", Cat: prof.CatPhase, Start: 100 * time.Microsecond, Dur: time.Millisecond},
		{ID: 3, Parent: 2, Name: "gemm", Cat: prof.CatKernel, Start: 200 * time.Microsecond, Dur: 500 * time.Microsecond},
		{ID: 4, Parent: 1, Name: "comm.ring.allreduce", Cat: prof.CatComm, Start: 2 * time.Millisecond, Dur: time.Millisecond, Bytes: 1 << 20},
	}
	var buf bytes.Buffer
	if err := WriteProfChrome(&buf, recs); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, edgesGoldenPath, buf.Bytes())
	// Structural checks so a golden regeneration cannot silently drop the
	// annotations: 4 slices + one flow pair.
	out := buf.String()
	for _, want := range []string{`"ph":"s"`, `"ph":"f"`, `"bp":"e"`, `"args":{"span":3,"parent":2}`, `"args":{"span":4,"parent":1,"bytes":1048576}`, `"name":"dep"`} {
		if !strings.Contains(out, want) {
			t.Fatalf("edge annotation %s missing from: %s", want, out)
		}
	}
	if strings.Count(out, `"ph":"X"`) != 4 || strings.Count(out, `"id":4`) != 2 {
		t.Fatalf("want 4 slices and one flow pair with id 4: %s", out)
	}
}

// TestProfCaptureEdgeIntegrity records a real nested capture and checks
// the span-edge invariants replay depends on: every non-root span's
// parent is a recorded span whose interval contains the child's Begin,
// and parent chains terminate (no cycles).
func TestProfCaptureEdgeIntegrity(t *testing.T) {
	prof.Enable()
	for step := 0; step < 3; step++ {
		st := prof.Begin(prof.CatPhase, "step")
		fwd := prof.BeginChild(&st, prof.CatPhase, "phase.forward")
		for k := 0; k < 4; k++ {
			sp := prof.Begin(prof.CatKernel, "gemm")
			sp.End()
		}
		fwd.End()
		upd := prof.BeginChild(&st, prof.CatPhase, "phase.update")
		upd.End()
		st.End()
	}
	prof.Disable()
	recs := prof.Records()
	if len(recs) != 3*7 {
		t.Fatalf("got %d records, want 21", len(recs))
	}
	byID := map[uint64]prof.Record{}
	for _, r := range recs {
		if r.ID == 0 {
			t.Fatalf("record %q has no span id", r.Name)
		}
		byID[r.ID] = r
	}
	roots := 0
	for _, r := range recs {
		if r.Parent == 0 {
			roots++
			continue
		}
		p, ok := byID[r.Parent]
		if !ok {
			t.Fatalf("span %d (%q) has unrecorded parent %d", r.ID, r.Name, r.Parent)
		}
		if r.Start < p.Start || r.Start > p.Start+p.Dur {
			t.Fatalf("span %q began outside its parent %q's interval", r.Name, p.Name)
		}
		hops := 0
		for id := r.Parent; id != 0; id = byID[id].Parent {
			if hops++; hops > len(recs) {
				t.Fatalf("parent cycle through span %d", r.ID)
			}
		}
	}
	if roots != 3 {
		t.Fatalf("got %d roots, want the 3 step spans", roots)
	}
}
