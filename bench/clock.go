package main

import (
	"sort"
	"sync"
	"time"
)

// The hosts this benchmark is gated on switch between two core clocks for
// seconds to minutes at a time, as their neighbours' load lets turbo in and
// out: a dependent floating-point chain that does nothing but wait on its
// own last result takes 286 us or 364 us there and nothing in between, and
// every workload here slows by the same 1.2 to 1.27 when it does. No
// estimator over raw times is steady against that, because a 15 s run may
// sit wholly in either state. So each slice samples the chain beside the
// work, and reports times scaled to a fixed reference clock: a duration
// counts for refChainNs/chain of itself, chain being the median sample
// within smoothWindow of it. On the sizing host the reference is its turbo
// clock, and the numbers are real milliseconds there; elsewhere they are
// real milliseconds times one constant of the CPU model, the same for every
// run and every commit.

const (
	chainLen    = 20000
	refChainNs  = 28600 // chainLen steps at the sizing host's turbo clock
	sampleEvery = 10 * time.Millisecond
	// smoothWindow is how far either side of a moment its clock is read
	// from. Single samples stray both ways: slow when interrupted, fast
	// when the sampler lands on an idle core that is clocked higher than
	// the one doing the work (one in twenty does). The clock itself holds
	// for seconds, so the median of half a second of samples tells it.
	smoothWindow = 25 // samples
)

var chainSink float64

// chainNs times the reference chain: every step needs the one before, so
// its time is a count of core cycles and tells the clock, whatever else
// shares the core. The fastest of three tries drops a try that was
// interrupted.
func chainNs() int64 {
	best := int64(1 << 62)
	for try := 0; try < 3; try++ {
		t0 := time.Now()
		x := 1.0
		for i := 0; i < chainLen; i++ {
			x = x*1.0000001 + 0.5
		}
		chainSink = x
		best = min(best, int64(time.Since(t0)))
	}
	return best
}

// clock samples the core clock in the background for as long as a slice
// runs. Times are nanoseconds since t0.
type clock struct {
	t0   time.Time
	wall bool // no sampling: scale returns intervals as they are
	stop chan struct{}
	wg   sync.WaitGroup
	mu   sync.Mutex
	at   []int64   // guarded by mu; ascending
	ns   []float64 // guarded by mu; the chain's time at at[i]
	unit []float64 // guarded by mu; refChainNs over the smoothed ns[i], 0 until known
}

// startClock starts sampling, unless wall is set: a wall clock passes
// times through for a workload the core clock does not govern.
func startClock(t0 time.Time, wall bool) *clock {
	c := &clock{t0: t0, wall: wall, stop: make(chan struct{})}
	if wall {
		return c
	}
	c.sample()
	c.wg.Add(1)
	go func() {
		defer c.wg.Done()
		tick := time.NewTicker(sampleEvery)
		defer tick.Stop()
		for {
			select {
			case <-c.stop:
				return
			case <-tick.C:
				c.sample()
			}
		}
	}()
	return c
}

func (c *clock) sample() {
	ns := chainNs()
	c.mu.Lock()
	c.at = append(c.at, int64(time.Since(c.t0)))
	c.ns = append(c.ns, float64(ns))
	c.unit = append(c.unit, 0)
	c.mu.Unlock()
}

// now is the current time on the clock's axis.
func (c *clock) now() int64 { return int64(time.Since(c.t0)) }

func (c *clock) close() {
	close(c.stop)
	c.wg.Wait()
}

// scale returns the reference-clock length of the interval [from, to),
// given in nanoseconds since t0: each stretch between two samples counts at
// the clock read around the earlier sample, and time before the first
// sample at the first's. Call it once the samples that follow the interval
// are in, which is to say after the timed window.
func (c *clock) scale(from, to int64) float64 {
	if c.wall {
		return float64(to - from)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	i := max(sort.Search(len(c.at), func(i int) bool { return c.at[i] > from })-1, 0)
	var sum float64
	for from < to {
		end := to
		if i+1 < len(c.at) {
			end = min(to, c.at[i+1])
		}
		if end > from {
			sum += float64(end-from) * c.unitLocked(i)
			from = end
		}
		if i+1 < len(c.at) {
			i++
		}
	}
	return sum
}

// unitLocked returns the rate at sample i, and remembers it once all the
// samples of its window are in.
//
//tbd:locked-by-caller
func (c *clock) unitLocked(i int) float64 {
	if c.unit[i] != 0 {
		return c.unit[i]
	}
	unit := refChainNs / median(c.ns[max(i-smoothWindow, 0):min(i+smoothWindow+1, len(c.ns))])
	if i+smoothWindow < len(c.ns) {
		c.unit[i] = unit
	}
	return unit
}
