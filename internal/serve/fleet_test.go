package serve

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"tbd/internal/models"
	"tbd/internal/tensor"
)

// twinFleetFactory returns a factory producing identically-seeded model
// twins, the shape NewFleet expects replicas to come from.
func twinFleetFactory(t *testing.T, name string, seed uint64) (func() (*Session, error), []int) {
	t.Helper()
	_, shape, err := models.ServeTwin(name, tensor.NewRNG(seed))
	if err != nil {
		t.Fatal(err)
	}
	return func() (*Session, error) {
		net, shp, err := models.ServeTwin(name, tensor.NewRNG(seed))
		if err != nil {
			return nil, err
		}
		return NewSession(net, shp...), nil
	}, shape
}

// TestFleetBitIdenticalToSingleSample: the equality check holds for the
// degenerate one-replica fleet and with weights shared across four.
func TestFleetBitIdenticalToSingleSample(t *testing.T) {
	for _, replicas := range []int{1, 4} {
		t.Run(fmt.Sprintf("replicas=%d", replicas), func(t *testing.T) {
			checkBitIdentical(t, "mlp", replicas)
		})
	}
}

// TestFleetSharedWeightBytes: N sharing replicas must report the
// resident weights of ONE model, not N.
func TestFleetSharedWeightBytes(t *testing.T) {
	factory, _ := twinFleetFactory(t, "mlp", 42)
	single, err := factory()
	if err != nil {
		t.Fatal(err)
	}
	one := single.WeightBytes()

	f, err := NewFleet(factory, FleetConfig{Replicas: 4, MaxBatch: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	snap := f.Stats()
	if !snap.SharedWeights {
		t.Fatal("fleet did not share weights")
	}
	if snap.WeightBytes != one {
		t.Fatalf("4-replica shared fleet reports %d weight bytes, one model is %d", snap.WeightBytes, one)
	}
	if snap.Replicas != 4 || len(snap.PerReplica) != 4 {
		t.Fatalf("snapshot replicas=%d per_replica=%d, want 4", snap.Replicas, len(snap.PerReplica))
	}
}

// TestFleetRoutingSpreadsLoad: with every replica slow and single-file,
// concurrent load must land on more than one replica (the queue-depth
// signal steers the router off busy replicas).
func TestFleetRoutingSpreadsLoad(t *testing.T) {
	factory := func() (*Session, error) {
		return NewSession(&slowModel{delay: 3 * time.Millisecond}, 4), nil
	}
	f, err := NewFleet(factory, FleetConfig{Replicas: 4, MaxBatch: 1, QueueDepth: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if f.SharedWeights() {
		t.Fatal("slowModel cannot share weights; fleet must fall back")
	}

	const nReq = 48
	var mu sync.Mutex
	served := map[int]int{}
	var wg sync.WaitGroup
	for i := 0; i < nReq; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := f.Predict(tensor.New(4))
			if err != nil {
				return // sheds are fine here; distribution is the point
			}
			mu.Lock()
			served[res.Replica]++
			mu.Unlock()
		}()
	}
	wg.Wait()
	if len(served) < 2 {
		t.Fatalf("all requests landed on %d replica(s): %v", len(served), served)
	}
}

// TestFleetDeadlineAdmission pins the two shed outcomes apart:
//   - ErrOverloaded when a feasible replica's queue is full (429-class);
//   - ErrDeadline when the budget is infeasible on every replica
//     (503-class), counted separately in the fleet snapshot.
func TestFleetDeadlineAdmission(t *testing.T) {
	const delay = 10 * time.Millisecond
	factory := func() (*Session, error) {
		return NewSession(&slowModel{delay: delay}, 4), nil
	}
	f, err := NewFleet(factory, FleetConfig{Replicas: 1, MaxBatch: 1, QueueDepth: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	// Warm the batch-time signal so feasibility checks have a real
	// estimate to work with.
	for i := 0; i < 3; i++ {
		if _, err := f.Predict(tensor.New(4)); err != nil {
			t.Fatal(err)
		}
	}

	// Saturate the single replica: one in flight plus a full queue.
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					_, _ = f.Predict(tensor.New(4))
				}
			}
		}()
	}
	time.Sleep(delay) // let the pipeline fill

	deadline := time.Now().Add(time.Second)
	var sawDeadline, sawOverload bool
	for time.Now().Before(deadline) && !(sawDeadline && sawOverload) {
		// Infeasible budget: queue wait alone is several forwards deep.
		if _, err := f.PredictSLO(tensor.New(4), 2*time.Millisecond); errors.Is(err, ErrDeadline) {
			sawDeadline = true
		}
		// No budget: the only shed reason left is a full queue.
		if _, err := f.PredictSLO(tensor.New(4), 0); errors.Is(err, ErrOverloaded) {
			sawOverload = true
		}
	}
	close(stop)
	wg.Wait()
	if !sawDeadline {
		t.Fatal("no infeasible-budget request was shed with ErrDeadline")
	}
	if !sawOverload {
		t.Fatal("no budget-free request was shed with ErrOverloaded")
	}
	snap := f.Stats()
	if snap.RejectedDeadline == 0 {
		t.Fatal("RejectedDeadline not counted")
	}
	if snap.RejectedOverload == 0 {
		t.Fatal("RejectedOverload not counted")
	}
}

// TestFleetDeadlineExpiresInQueue: a request admitted against a cold
// estimate but expired by dequeue time is shed there — the forward pass
// is not wasted on a result nobody can use.
func TestFleetDeadlineExpiresInQueue(t *testing.T) {
	const delay = 30 * time.Millisecond
	factory := func() (*Session, error) {
		return NewSession(&slowModel{delay: delay}, 4), nil
	}
	// Cold fleet: no batch-time signal yet, so admission lets the tight
	// budget through and the dequeue-time check has to catch it.
	f, err := NewFleet(factory, FleetConfig{Replicas: 1, MaxBatch: 1, QueueDepth: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // occupies the replica for ~delay
		defer wg.Done()
		_, _ = f.Predict(tensor.New(4))
	}()
	time.Sleep(2 * time.Millisecond) // ensure the blocker is in flight
	_, err = f.PredictSLO(tensor.New(4), 5*time.Millisecond)
	wg.Wait()
	if !errors.Is(err, ErrDeadline) {
		t.Fatalf("queued-past-deadline request got %v, want ErrDeadline", err)
	}
	snap := f.Stats()
	if snap.RejectedDeadline == 0 {
		t.Fatal("dequeue-time shed not counted in RejectedDeadline")
	}
}

// TestFleetOverloadPhaseSLO is the end-to-end control story: an
// open-loop Poisson schedule drives the fleet into a scripted overload
// phase; the router sheds what cannot meet the SLO and the latency of
// what it admits stays bounded near the SLO instead of following the
// unbounded open-loop backlog.
func TestFleetOverloadPhaseSLO(t *testing.T) {
	const slo = 50 * time.Millisecond
	factory := func() (*Session, error) {
		return NewSession(&slowModel{delay: 2 * time.Millisecond}, 4), nil
	}
	// QueueDepth deliberately deeper than the SLO's feasible backlog
	// (~25 requests at 2ms each): overload must be shed by the deadline
	// check, not by running out of queue slots.
	f, err := NewFleet(factory, FleetConfig{
		Replicas: 2, MaxBatch: 1, QueueDepth: 64, SLO: slo,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	x := tensor.New(4)
	res := OpenLoadGen{
		Phases: []Phase{
			{Rate: 200, Duration: 200 * time.Millisecond},  // under capacity (~1000/s)
			{Rate: 5000, Duration: 200 * time.Millisecond}, // 5x overload
			{Rate: 200, Duration: 200 * time.Millisecond},  // recovery
		},
		Poisson: true,
		Workers: 64,
		Seed:    3,
	}.Run(func() error {
		_, err := f.Predict(x)
		return err
	})

	if res.Offered == 0 || res.OK == 0 {
		t.Fatalf("degenerate run: offered=%d ok=%d", res.Offered, res.OK)
	}
	if res.Phases[1].Shed == 0 {
		t.Fatal("overload phase shed nothing; admission control did not engage")
	}
	if res.Errors != 0 {
		t.Fatalf("%d non-shed errors under overload", res.Errors)
	}
	snap := f.Stats()
	if snap.RejectedDeadline == 0 {
		t.Fatal("no SLO sheds counted during overload")
	}
	if snap.Failed != 0 {
		t.Fatalf("%d failed requests", snap.Failed)
	}
	// Admitted-request latency (service-side) stays near the SLO: every
	// completed request was dequeued before its deadline, so residence is
	// bounded by SLO + one forward (+ scheduler noise; 3x headroom).
	if snap.LatencyP99Ms > 3*float64(slo.Milliseconds()) {
		t.Fatalf("admitted p99 %.1fms blew through SLO %v despite deadline admission", snap.LatencyP99Ms, slo)
	}
}

// TestFleetStatsAggregate: counters across replicas add up and the
// aggregate matches what clients observed.
func TestFleetStatsAggregate(t *testing.T) {
	factory := func() (*Session, error) {
		return NewSession(identityModel{}, 4), nil
	}
	f, err := NewFleet(factory, FleetConfig{
		Replicas: 3, MaxBatch: 8, MaxWait: 500 * time.Microsecond, QueueDepth: 64,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	capture(t, 256)

	const nReq = 90
	var wg sync.WaitGroup
	var okCount atomic.Uint64
	for i := 0; i < nReq; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := f.Predict(tensor.New(4)); err == nil {
				okCount.Add(1)
			}
		}()
	}
	wg.Wait()

	snap := f.Stats()
	if snap.Completed != okCount.Load() {
		t.Fatalf("aggregate completed=%d, clients saw %d", snap.Completed, okCount.Load())
	}
	var perAccepted, perCompleted uint64
	for _, rs := range snap.PerReplica {
		perAccepted += rs.Accepted
		perCompleted += rs.Completed
	}
	if perAccepted != snap.Accepted || perCompleted != snap.Completed {
		t.Fatalf("per-replica sums (acc=%d comp=%d) disagree with aggregate (acc=%d comp=%d)",
			perAccepted, perCompleted, snap.Accepted, snap.Completed)
	}
	if snap.LatencyP50Ms <= 0 {
		t.Fatal("aggregate latency quantiles empty")
	}
	checkLatencyCount(t, f, snap.Completed)
	seen := map[string]bool{}
	for _, s := range batchSpans(t, snap.Batches) {
		seen[s.Name] = true
	}
	if len(seen) < 2 {
		t.Fatalf("batch spans name only %d replica(s): %v", len(seen), seen)
	}
}

// TestFleetGracefulDrain: the shutdown contract, for one runner and for
// several — every admitted request completes, late arrivals get
// ErrShuttingDown, and all runner goroutines exit.
func TestFleetGracefulDrain(t *testing.T) {
	for _, replicas := range []int{1, 4} {
		t.Run(fmt.Sprintf("replicas=%d", replicas), func(t *testing.T) {
			checkGracefulDrain(t, replicas)
		})
	}
}

func checkGracefulDrain(t *testing.T, replicas int) {
	before := runtime.NumGoroutine()

	factory := func() (*Session, error) {
		return NewSession(&slowModel{delay: 2 * time.Millisecond}, 4), nil
	}
	// Every queue can hold the whole burst, so closing is the only reason
	// a request may be refused.
	const nReq = 48
	f, err := NewFleet(factory, FleetConfig{
		Replicas: replicas, MaxBatch: 4, MaxWait: time.Millisecond, QueueDepth: nReq,
	})
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	errc := make(chan error, nReq)
	for i := 0; i < nReq; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err := f.Predict(tensor.New(4))
			errc <- err
		}()
	}
	// Let some requests get admitted, then close concurrently with the
	// rest still arriving.
	time.Sleep(time.Millisecond)
	f.Close()
	wg.Wait()
	close(errc)

	var served, refused int
	for err := range errc {
		switch {
		case err == nil:
			served++
		case errors.Is(err, ErrShuttingDown):
			refused++
		default:
			t.Fatalf("unexpected error during drain: %v", err)
		}
	}
	if served == 0 {
		t.Fatal("no admitted request drained to completion")
	}
	if served+refused != nReq {
		t.Fatalf("served %d + refused %d != %d", served, refused, nReq)
	}
	if _, err := f.Predict(tensor.New(4)); !errors.Is(err, ErrShuttingDown) {
		t.Fatalf("Predict after Close = %v, want ErrShuttingDown", err)
	}
	f.Close() // idempotent

	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		runtime.Gosched()
		time.Sleep(5 * time.Millisecond)
	}
	if g := runtime.NumGoroutine(); g > before {
		t.Fatalf("goroutines leaked: %d before, %d after drain", before, g)
	}
}

// TestFleetConfigValidation: nil and failing factories are refused at
// construction.
func TestFleetConfigValidation(t *testing.T) {
	if _, err := NewFleet(nil, FleetConfig{}); err == nil {
		t.Fatal("nil factory accepted")
	}
	failing := func() (*Session, error) { return nil, fmt.Errorf("no weights on disk") }
	if _, err := NewFleet(failing, FleetConfig{Replicas: 2}); err == nil {
		t.Fatal("failing factory accepted")
	}
}

// TestFleetSampleLengthPinned proves the guard replica.flush relies on to
// size its workspace once: no session whose sample length differs from
// replica 0's ever reaches a runner, at construction or through Swap.
func TestFleetSampleLengthPinned(t *testing.T) {
	length := 4
	var calls int
	factory := func() (*Session, error) {
		calls++
		if calls == 2 {
			return NewSession(identityModel{}, length+1), nil
		}
		return NewSession(identityModel{}, length), nil
	}
	if _, err := NewFleet(factory, FleetConfig{Replicas: 2, MaxBatch: 2}); err == nil {
		t.Fatal("NewFleet accepted a second replica with a different sample length")
	}

	f, err := NewFleet(factory, FleetConfig{Replicas: 2, MaxBatch: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	length = 6 // the factory drifts after construction
	if err := f.Swap(nil); err == nil {
		t.Fatal("Swap accepted sessions with a different sample length")
	}
	if snap := f.Stats(); snap.Swaps != 0 {
		t.Fatalf("refused swap counted: swaps=%d", snap.Swaps)
	}
	for i := 0; i < 4; i++ { // both replicas still serve the old shape
		res, err := f.Predict(tensor.Full(float32(i), 4))
		if err != nil {
			t.Fatalf("request %d after refused swap: %v", i, err)
		}
		if len(res.Output) != 4 || res.Output[0] != float32(i) {
			t.Fatalf("request %d after refused swap: output %v", i, res.Output)
		}
	}
	if _, err := f.Predict(tensor.New(6)); err == nil {
		t.Fatal("fleet adopted the drifted sample length")
	}
}
