package main

import (
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"tbd/internal/prof"
	"tbd/internal/whatif"
)

// The dist smoke tests spawn REAL worker OS processes: the compiled
// binary re-executes itself once per rank, trains over localhost TCP,
// and the parent verifies bit-identical final weights.

var hashLineRE = regexp.MustCompile(`weights hash ([0-9a-f]{16}) — identical across all (\d+) workers`)

func TestCLIDistRingSpawnsProcesses(t *testing.T) {
	out := run(t, false, "dist", "-workers", "2", "-strategy", "ring", "-model", "mlp", "-steps", "8", "-seed", "7")
	m := hashLineRE.FindStringSubmatch(out)
	if m == nil {
		t.Fatalf("dist output missing identical-hash line:\n%s", out)
	}
	if m[2] != "2" {
		t.Fatalf("identity verdict covers %s workers, want 2:\n%s", m[2], out)
	}
	for _, want := range []string{"2 worker processes", "ring", "rank", "wire-out", "cluster:"} {
		if !strings.Contains(out, want) {
			t.Fatalf("dist output missing %q:\n%s", want, out)
		}
	}

	// Same seed, fresh processes: the weights hash must reproduce exactly.
	again := run(t, false, "dist", "-workers", "2", "-strategy", "ring", "-model", "mlp", "-steps", "8", "-seed", "7")
	m2 := hashLineRE.FindStringSubmatch(again)
	if m2 == nil {
		t.Fatalf("repeat dist output missing identical-hash line:\n%s", again)
	}
	if m2[1] != m[1] {
		t.Fatalf("same-seed rerun hash %s != first run %s", m2[1], m[1])
	}
}

func TestCLIDistPSSyncInt8(t *testing.T) {
	out := run(t, false, "dist", "-workers", "2", "-strategy", "ps-sync", "-compress", "int8",
		"-model", "mlp", "-steps", "6", "-seed", "11")
	if !hashLineRE.MatchString(out) {
		t.Fatalf("ps-sync int8 run did not converge to identical weights:\n%s", out)
	}
}

func TestCLIDistValidates(t *testing.T) {
	run(t, true, "dist", "-strategy", "gossip")
	run(t, true, "dist", "-compress", "int4")
	run(t, true, "dist", "-workers", "0")
	run(t, true, "dist", "-role", "manager")
	// An uneven or negative global batch is refused before the coordinator
	// listens, not left waiting on ranks that exit before their hello.
	runRefused(t, "global batch 3 must be positive and divisible by 2 workers", "dist", "-workers", "2", "-batch", "3", "-steps", "1")
	runRefused(t, "global batch -4 must be positive and divisible by 2 workers", "dist", "-workers", "2", "-batch", "-4", "-steps", "1")
}

// TestCLIDistTraceReplaysToIdentity sends each rank's trace across the
// process boundary in its result frame, reads the merged file back with
// the one trace reader, and replays it under a scenario with no clauses:
// the prediction is the recording.
func TestCLIDistTraceReplaysToIdentity(t *testing.T) {
	for _, strategy := range []string{"ring", "ps-sync"} {
		t.Run(strategy, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "dist.json")
			out := run(t, false, "dist", "-workers", "2", "-strategy", strategy, "-steps", "3", "-trace-out", path)
			if !hashLineRE.MatchString(out) || !strings.Contains(out, "comm-self(ms)") {
				t.Fatalf("dist -trace-out output missing the identical-hash line or the budget:\n%s", out)
			}
			tr, err := prof.ReadTraceFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if len(tr.Ranks) != 2 || tr.Meta.Workers != 2 || tr.Meta.Strategy != strategy {
				t.Fatalf("trace of %d ranks, meta %+v", len(tr.Ranks), tr.Meta)
			}
			sc, err := whatif.ParseScenario("")
			if err != nil {
				t.Fatal(err)
			}
			p, err := whatif.Replay(tr, sc)
			if err != nil {
				t.Fatal(err)
			}
			if p.PredictedStepUs != p.BaselineStepUs || p.PredictedWallUs != p.BaselineWallUs {
				t.Fatalf("identity replay: step %v -> %v us, wall %v -> %v us",
					p.BaselineStepUs, p.PredictedStepUs, p.BaselineWallUs, p.PredictedWallUs)
			}
		})
	}
}
