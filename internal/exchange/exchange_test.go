package exchange

import (
	"math"
	"slices"
	"testing"
)

// line is a link at 1 byte a µs with no burst: a piece's time is its bytes.
var line = Link{Rate: 1e6, Ceil: math.Inf(1)}

func run(t *testing.T, sh Shape, ready []float64, w Wire) ([][]float64, float64) {
	t.Helper()
	x, err := New(sh)
	if err != nil {
		t.Fatal(err)
	}
	steps := make([][]Step, sh.Ranks)
	for r := range steps {
		for range sh.Steps {
			steps[r] = append(steps[r], Step{Ready: ready})
		}
	}
	return x.Run(steps, line, w)
}

// TestRingHopsFollowThePreviousRank: two ranks, one piece-sized bucket a
// step. Each sends its half-chunk (8192 elements) twice, the all-gather
// hop after the peer's reduce-scatter hop is in.
func TestRingHopsFollowThePreviousRank(t *testing.T) {
	marks, busy := run(t, Shape{Ranks: 2, Steps: 1, Strategy: Ring, Buckets: []float64{PieceElems}}, []float64{100}, Wire{Out: 2, Back: 4})
	for r := range 2 {
		if want := []float64{100, 100 + 8192*2, 100 + 8192*2 + 8192*4}; !slices.Equal(marks[r], want) {
			t.Fatalf("rank %d: marks %v, want %v", r, marks[r], want)
		}
	}
	if busy != 8192*6 {
		t.Fatalf("busy %v, want both hops of one lane", busy)
	}
}

// TestServerLanesAreShared: four ranks push one range each through the
// server's one ingress lane, so the last push lands four ranges after the
// first, and a sync server's replies queue behind every push.
func TestServerLanesAreShared(t *testing.T) {
	marks, busy := run(t, Shape{Ranks: 4, Steps: 1, Strategy: SyncPS, Buckets: []float64{PieceElems}}, []float64{0}, Wire{Out: 4, Back: 4})
	const rng = 64 << 10
	for r := range 4 {
		if want := 4*rng + float64(r+1)*rng; marks[r][1] != want {
			t.Fatalf("rank %d reply ends at %v, want %v", r, marks[r][1], want)
		}
	}
	if busy != 4*rng {
		t.Fatalf("busy %v, want four ranges on each lane", busy)
	}
	marks, _ = run(t, Shape{Ranks: 4, Steps: 1, Strategy: AsyncPS, Buckets: []float64{PieceElems}}, []float64{0}, Wire{Out: 4, Back: 4})
	if marks[0][1] != 2*rng {
		t.Fatalf("async rank 0 reply ends at %v, want right after its own push", marks[0][1])
	}
}

// TestBucketsOverlapCompute: a bucket ready early is exchanged while the
// step computes on, so only the last bucket's exchange outlasts it.
func TestBucketsOverlapCompute(t *testing.T) {
	marks, _ := run(t, Shape{Ranks: 2, Steps: 1, Strategy: SyncPS, Buckets: []float64{1000, 10}}, []float64{0, 50000}, Wire{Out: 4, Back: 4})
	if !slices.Equal(marks[0], []float64{0, 8000 + 4000}) || !slices.Equal(marks[1], []float64{50000, 50000 + 80 + 40}) {
		t.Fatalf("rank 0's marks %v", marks[:2])
	}
}

// TestServerIntakeOnTheHostCPUs: a push is taken in on rank r mod CPUs's
// lane at its share of the CPU its rank spent on the step.
func TestServerIntakeOnTheHostCPUs(t *testing.T) {
	x, err := New(Shape{Ranks: 2, Steps: 1, Strategy: SyncPS, Buckets: []float64{2 * PieceElems}, CPUs: 1})
	if err != nil {
		t.Fatal(err)
	}
	step := []Step{{Ready: []float64{0}, CPUUs: 1e6}}
	marks, _ := x.Run([][]Step{step, step}, Link{Rate: math.Inf(1), Burst: math.Inf(1), Ceil: math.Inf(1)}, Wire{Out: 4, Back: 4})
	// Four intakes of half a rank's CPU each on one lane.
	if marks[0][1] != 2e6 || marks[1][1] != 2e6 {
		t.Fatalf("marks %v, want the host's one CPU busy 2 s", marks)
	}
}

func TestNewRefusesWhatItCannotSchedule(t *testing.T) {
	for name, sh := range map[string]Shape{
		"past the task bound": {Ranks: 2, Steps: 1, Strategy: Ring, Buckets: []float64{1 << 40}},
		"an empty bucket":     {Ranks: 2, Steps: 1, Strategy: SyncPS, Buckets: []float64{0}},
		"a NaN bucket":        {Ranks: 2, Steps: 1, Strategy: SyncPS, Buckets: []float64{math.NaN()}},
	} {
		if _, err := New(sh); err == nil {
			t.Errorf("%s: built", name)
		}
	}
}
