package serve

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"time"

	"tbd/internal/metrics"
	"tbd/internal/tensor"
)

// Open-loop load generation. The closed-loop LoadGen coordinates with
// the system under test by construction: a worker that is stuck waiting
// on a slow request stops offering load, so the slow period is sampled
// exactly once no matter how long it lasts — the classic
// coordinated-omission bug, and the reason closed-loop p99s look rosy
// under overload. OpenLoadGen fixes both halves:
//
//   - Arrivals follow a scripted schedule (optionally Poisson) that does
//     not care how the service is doing. When the service falls behind,
//     arrivals queue up in the generator instead of silently not
//     happening.
//   - Latency is measured from each request's *intended* arrival time on
//     the schedule, not from when a worker finally got around to sending
//     it. A request that waited 80ms in the generator's backlog and 5ms
//     in the service reports 85ms, which is what a real client that
//     showed up on schedule would have seen.
//
// The schedule itself is deterministic given the seed: inter-arrival
// gaps are drawn from the generator's own RNG, so two runs with the same
// phases and seed offer exactly the same request sequence.

// Phase is one segment of a scripted open-loop schedule: offer Rate
// requests/second for Duration. Chaining phases scripts load shapes like
// warm-up -> overload spike -> recovery.
type Phase struct {
	Rate     float64
	Duration time.Duration
}

// ErrBadPhase is wrapped by every phase the open-loop dispatcher cannot
// pace.
var ErrBadPhase = errors.New("bad open-loop phase")

// Validate refuses a phase the dispatcher cannot pace: a rate that is
// negative or not finite, one whose gap between arrivals is under 1ns
// (above 1e9/s) or past time.Duration's range (below about 1.1e-10/s),
// or a duration that is not positive. A rate of 0 is an idle phase. The
// gap is compared as a float: converting an out-of-range float to an
// integer gives a value that depends on the architecture.
func (p Phase) Validate() error {
	gap := float64(time.Second) / p.Rate
	switch {
	case math.IsNaN(p.Rate) || math.IsInf(p.Rate, 0) || p.Rate < 0:
		return fmt.Errorf("%w: rate %v/s is not a finite rate >= 0", ErrBadPhase, p.Rate)
	case p.Rate > 0 && (gap < 1 || gap >= math.MaxInt64):
		return fmt.Errorf("%w: rate %v/s has no inter-arrival gap between 1ns and time.Duration's range", ErrBadPhase, p.Rate)
	case p.Duration <= 0:
		return fmt.Errorf("%w: duration %v is not positive", ErrBadPhase, p.Duration)
	}
	return nil
}

// OpenLoadGen drives a scripted open-loop schedule against a call
// function.
type OpenLoadGen struct {
	// Phases is the schedule, executed in order.
	Phases []Phase
	// Workers bounds concurrent in-flight calls. Defaults to 32. When all
	// workers are busy, arrivals wait in the generator's backlog and their
	// backlog wait counts toward latency (the CO fix).
	Workers int
	// Poisson draws exponential inter-arrival gaps (a memoryless arrival
	// process); false paces arrivals uniformly at 1/Rate.
	Poisson bool
	// Seed seeds the schedule RNG. Defaults to 1.
	Seed uint64
	// Backlog caps the generator-side queue of pending arrivals (default
	// 65536). Arrivals beyond it are counted as Dropped rather than
	// blocking the schedule.
	Backlog int
}

// PhaseResult summarizes one phase of an open-loop run.
type PhaseResult struct {
	Rate     float64
	Duration time.Duration
	// Offered counts scheduled arrivals; Offered = OK + Shed + Errors +
	// Dropped.
	Offered uint64
	// OK counts completed requests; Shed counts admission-control
	// rejections (ErrOverloaded, ErrDeadline); Errors counts everything
	// else; Dropped counts arrivals the generator's backlog refused.
	OK      uint64
	Shed    uint64
	Errors  uint64
	Dropped uint64
	// Latency is the phase's schedule-relative latency histogram
	// (seconds): completion time minus intended arrival time, observed
	// only for OK requests.
	Latency *metrics.Histogram
}

// P50Ms, P99Ms report phase latency quantiles in milliseconds.
func (p PhaseResult) P50Ms() float64 { return 1e3 * p.Latency.Quantile(0.50) }
func (p PhaseResult) P99Ms() float64 { return 1e3 * p.Latency.Quantile(0.99) }

// OpenResult summarizes an open-loop run.
type OpenResult struct {
	Phases  []PhaseResult
	Offered uint64
	OK      uint64
	Shed    uint64
	Errors  uint64
	Dropped uint64
	Elapsed time.Duration
	// Latency merges every phase's schedule-relative histogram.
	Latency *metrics.Histogram
}

// P50Ms, P99Ms report run-wide latency quantiles in milliseconds.
func (r OpenResult) P50Ms() float64 { return 1e3 * r.Latency.Quantile(0.50) }
func (r OpenResult) P99Ms() float64 { return 1e3 * r.Latency.Quantile(0.99) }

// openArrival is one scheduled request: which phase it belongs to and
// when the schedule said it should happen.
type openArrival struct {
	phase    int
	intended time.Time
}

// openAccum collects per-phase outcomes from the worker pool.
type openAccum struct {
	mu     sync.Mutex
	phases []PhaseResult // guarded by mu
}

func (a *openAccum) record(ph int, err error, latSec float64) {
	a.mu.Lock()
	p := &a.phases[ph]
	switch {
	case err == nil:
		p.OK++
		p.Latency.Observe(latSec)
	case errors.Is(err, ErrOverloaded) || errors.Is(err, ErrDeadline):
		p.Shed++
	default:
		p.Errors++
	}
	a.mu.Unlock()
}

func (a *openAccum) drop(ph int) {
	a.mu.Lock()
	a.phases[ph].Dropped++
	a.mu.Unlock()
}

// Run executes the schedule against call and blocks until every
// dispatched request completes. call's error classifies the outcome (see
// PhaseResult); Predict/PredictSLO errors map directly, HTTP callers
// should translate 429 to ErrOverloaded and 503 to ErrDeadline first.
func (g OpenLoadGen) Run(call func() error) OpenResult {
	workers := g.Workers
	if workers <= 0 {
		workers = 32
	}
	backlog := g.Backlog
	if backlog <= 0 {
		backlog = 1 << 16
	}
	seed := g.Seed
	if seed == 0 {
		seed = 1
	}
	acc := &openAccum{phases: make([]PhaseResult, len(g.Phases))}
	for i, ph := range g.Phases {
		acc.phases[i] = PhaseResult{
			Rate:     ph.Rate,
			Duration: ph.Duration,
			Latency:  metrics.NewLatencyHistogram(),
		}
	}

	ch := make(chan openArrival, backlog)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for a := range ch {
				err := call()
				acc.record(a.phase, err, time.Since(a.intended).Seconds())
			}
		}()
	}

	// Dispatcher: walk the schedule in virtual time (offsets from t0
	// drawn from the RNG alone, so the offered sequence is deterministic),
	// sleeping until each arrival's wall-clock slot.
	rng := tensor.NewRNG(seed)
	t0 := time.Now()
	offset := time.Duration(0) // virtual time since t0
	for pi, ph := range g.Phases {
		end := offset + ph.Duration
		if ph.Rate == 0 || ph.Validate() != nil {
			offset = end
			continue
		}
		for {
			var gap time.Duration
			if g.Poisson {
				// Exponential inter-arrival; 1-u keeps the log argument
				// in (0, 1].
				gap = time.Duration(-math.Log(1-rng.Float64()) / ph.Rate * float64(time.Second))
			} else {
				gap = time.Duration(float64(time.Second) / ph.Rate)
			}
			offset += gap
			if offset >= end {
				offset = end
				break
			}
			intended := t0.Add(offset)
			if d := time.Until(intended); d > 0 {
				time.Sleep(d)
			}
			arr := openArrival{phase: pi, intended: intended}
			acc.mu.Lock()
			acc.phases[pi].Offered++
			acc.mu.Unlock()
			select {
			case ch <- arr:
			default:
				acc.drop(pi)
			}
		}
	}
	close(ch)
	wg.Wait()
	elapsed := time.Since(t0)

	out := OpenResult{
		Phases:  acc.phases,
		Elapsed: elapsed,
		Latency: metrics.NewLatencyHistogram(),
	}
	for i := range out.Phases {
		p := &out.Phases[i]
		out.Offered += p.Offered
		out.OK += p.OK
		out.Shed += p.Shed
		out.Errors += p.Errors
		out.Dropped += p.Dropped
		out.Latency.Merge(p.Latency)
	}
	return out
}
