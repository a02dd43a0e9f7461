package serve

import (
	"errors"
	"math"
	"testing"
	"time"
)

// TestOpenLoadGenDeterministicSchedule: the offered arrival sequence is
// a pure function of (phases, seed) — two runs offer exactly the same
// number of requests per phase no matter how the service behaved.
func TestOpenLoadGenDeterministicSchedule(t *testing.T) {
	gen := OpenLoadGen{
		Phases: []Phase{
			{Rate: 2000, Duration: 50 * time.Millisecond},
			{Rate: 500, Duration: 50 * time.Millisecond},
		},
		Poisson: true,
		Seed:    7,
		Workers: 8,
	}
	a := gen.Run(func() error { return nil })
	b := gen.Run(func() error { return nil })
	if a.Offered == 0 {
		t.Fatal("no arrivals offered")
	}
	for i := range a.Phases {
		if a.Phases[i].Offered != b.Phases[i].Offered {
			t.Fatalf("phase %d offered %d vs %d across identically-seeded runs",
				i, a.Phases[i].Offered, b.Phases[i].Offered)
		}
	}
	if a.Offered != a.OK+a.Shed+a.Errors+a.Dropped {
		t.Fatalf("accounting leak: offered=%d ok=%d shed=%d errors=%d dropped=%d",
			a.Offered, a.OK, a.Shed, a.Errors, a.Dropped)
	}
}

// TestOpenLoadGenCoordinatedOmissionVisible is the CO regression test:
// with one worker stuck behind a 20ms call and a schedule offering a
// request every 5ms, a closed-loop (or send-time-measured) generator
// would report ~20ms everywhere; measuring from intended arrival time
// must surface the growing backlog wait instead.
func TestOpenLoadGenCoordinatedOmissionVisible(t *testing.T) {
	const callDur = 20 * time.Millisecond
	res := OpenLoadGen{
		Phases:  []Phase{{Rate: 200, Duration: 250 * time.Millisecond}},
		Workers: 1, // serialize: the backlog has nowhere to hide
		Seed:    1,
	}.Run(func() error {
		time.Sleep(callDur)
		return nil
	})
	if res.OK < 5 {
		t.Fatalf("only %d requests completed; schedule did not run", res.OK)
	}
	// The last completions waited through most of the backlog; their
	// schedule-relative latency is many multiples of the 20ms service
	// time. p99 >= 2x service time is a conservative floor — a
	// coordinating generator would sit at ~1x.
	if p99 := res.Latency.Quantile(0.99); p99 < 2*callDur.Seconds() {
		t.Fatalf("p99 %.1fms does not expose the backlog (service time %.0fms); coordinated omission is back",
			1e3*p99, 1e3*callDur.Seconds())
	}
}

// TestOpenLoadGenOutcomeClasses: admission-control sentinels count as
// Shed, everything else as Errors, successes as OK with latency.
func TestOpenLoadGenOutcomeClasses(t *testing.T) {
	var i int
	other := errors.New("transport exploded")
	res := OpenLoadGen{
		Phases:  []Phase{{Rate: 1000, Duration: 20 * time.Millisecond}},
		Workers: 1,
		Seed:    2,
	}.Run(func() error {
		i++
		switch i % 4 {
		case 0:
			return ErrOverloaded
		case 1:
			return ErrDeadline
		case 2:
			return other
		default:
			return nil
		}
	})
	if res.Shed == 0 {
		t.Fatal("admission sheds not classified as Shed")
	}
	if res.Errors == 0 {
		t.Fatal("non-shed failure not classified as Error")
	}
	if res.OK == 0 {
		t.Fatal("no successes recorded")
	}
	if res.Latency.Count() != res.OK {
		t.Fatalf("latency histogram has %d observations, OK=%d (failures must not be observed)",
			res.Latency.Count(), res.OK)
	}
}

// TestOpenLoadGenPhaseMetadata: results keep the schedule's shape.
func TestOpenLoadGenPhaseMetadata(t *testing.T) {
	res := OpenLoadGen{
		Phases: []Phase{
			{Rate: 400, Duration: 30 * time.Millisecond},
			{Rate: 0, Duration: 10 * time.Millisecond}, // silence is a valid phase
			{Rate: 800, Duration: 30 * time.Millisecond},
		},
		Seed: 4,
	}.Run(func() error { return nil })
	if len(res.Phases) != 3 {
		t.Fatalf("got %d phase results, want 3", len(res.Phases))
	}
	if res.Phases[0].Rate != 400 || res.Phases[2].Rate != 800 {
		t.Fatal("phase rates not preserved")
	}
	if res.Phases[1].Offered != 0 {
		t.Fatalf("silent phase offered %d requests", res.Phases[1].Offered)
	}
	if res.Phases[0].Offered == 0 || res.Phases[2].Offered == 0 {
		t.Fatal("active phases offered nothing")
	}
}

// TestOpenLoadGenSkipsUnschedulablePhases runs phases whose inter-arrival
// gap rounds to zero, overflows or is not a number: each is skipped like
// an idle phase, and Run returns instead of spinning on virtual time that
// never reaches the phase end.
func TestOpenLoadGenSkipsUnschedulablePhases(t *testing.T) {
	for _, rate := range []float64{2e9, math.Inf(1), math.NaN(), 1e-300} {
		for _, poisson := range []bool{false, true} {
			if err := (Phase{Rate: rate, Duration: time.Second}).Validate(); !errors.Is(err, ErrBadPhase) {
				t.Errorf("rate %v: Validate = %v, want ErrBadPhase", rate, err)
			}
			done := make(chan OpenResult, 1)
			go func() {
				done <- OpenLoadGen{Phases: []Phase{{Rate: rate, Duration: 10 * time.Millisecond}}, Poisson: poisson}.Run(func() error { return nil })
			}()
			select {
			case res := <-done:
				if res.Offered != 0 {
					t.Errorf("rate %v: offered %d arrivals, want the phase skipped", rate, res.Offered)
				}
			case <-time.After(2 * time.Second):
				t.Fatalf("rate %v (poisson %t): Run still running after 2s", rate, poisson)
			}
		}
	}
}
