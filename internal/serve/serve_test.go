package serve

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"tbd/internal/models"
	"tbd/internal/prof"
	"tbd/internal/tensor"
)

// identityModel echoes its input: output row i == input row i. It lets
// ordering tests tag each request with a distinct payload.
type identityModel struct{}

func (identityModel) Forward(x *tensor.Tensor, train bool) *tensor.Tensor { return x }

// slowModel sleeps per forward, for queue-pressure and drain tests.
type slowModel struct {
	delay    time.Duration
	forwards atomic.Int64
}

func (m *slowModel) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	m.forwards.Add(1)
	time.Sleep(m.delay)
	return x
}

// panicModel simulates a forward-pass fault (e.g. out-of-vocab token id
// hitting an embedding layer).
type panicModel struct{}

func (panicModel) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	panic("bad input")
}

// oneReplica stands up the degenerate fleet over a ready session: the
// factory is a closure over it, and cfg.Replicas stays at its default.
func oneReplica(t testing.TB, sess *Session, cfg FleetConfig) *Fleet {
	t.Helper()
	f, err := NewFleet(func() (*Session, error) { return sess, nil }, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// checkBitIdentical is the zero-tolerance equality check: every result
// served through the router and a dynamic batcher must be bit-identical
// to a single-sample forward pass on an identically seeded network,
// whichever replica served it. Bit-identity across batch sizes holds on
// the bit-exact kernel tier (the avx2/FMA tier routes wide batches
// through 8x8 tiles and single samples through scalar code, which agree
// only to ULP), so the check pins that tier; see gemm_tier_test.go in
// internal/tensor for the FMA tier's own equivalence bounds.
func checkBitIdentical(t *testing.T, twin string, replicas int) {
	prevTier, err := tensor.SetGemmKernelTier(tensor.BitExactGemmTier())
	if err != nil {
		t.Fatal(err)
	}
	defer tensor.SetGemmKernelTier(prevTier)

	refNet, shape, err := models.ServeTwin(twin, tensor.NewRNG(99))
	if err != nil {
		t.Fatal(err)
	}
	const nReq = 64
	rng := tensor.NewRNG(7)
	samples := make([]*tensor.Tensor, nReq)
	want := make([][]float32, nReq)
	for i := range samples {
		samples[i] = tensor.RandNormal(rng, 0, 1, shape...)
		out := refNet.Forward(samples[i].Reshape(append([]int{1}, shape...)...), false)
		want[i] = append([]float32(nil), out.Data()...)
	}

	factory, _ := twinFleetFactory(t, twin, 99)
	f, err := NewFleet(factory, FleetConfig{
		Replicas: replicas, MaxBatch: 16, MaxWait: 2 * time.Millisecond, QueueDepth: nReq,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if f.SharedWeights() != (replicas > 1) {
		t.Fatalf("SharedWeights = %t with %d graph-backed replica(s)", f.SharedWeights(), replicas)
	}

	var wg sync.WaitGroup
	results := make([]Result, nReq)
	errs := make([]error, nReq)
	for i := 0; i < nReq; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = f.Predict(samples[i])
		}(i)
	}
	wg.Wait()

	var batched bool
	for i := 0; i < nReq; i++ {
		if errs[i] != nil {
			t.Fatalf("request %d: %v", i, errs[i])
		}
		if results[i].Replica < 0 || results[i].Replica >= replicas {
			t.Fatalf("request %d served by out-of-range replica %d", i, results[i].Replica)
		}
		if len(results[i].Output) != len(want[i]) {
			t.Fatalf("request %d: output len %d, want %d", i, len(results[i].Output), len(want[i]))
		}
		for j := range want[i] {
			if results[i].Output[j] != want[i][j] {
				t.Fatalf("request %d elem %d (replica %d): served %g, single-sample %g (must be bit-identical)",
					i, j, results[i].Replica, results[i].Output[j], want[i][j])
			}
		}
		if results[i].BatchSize > 1 {
			batched = true
		}
	}
	if !batched {
		t.Fatal("no request rode in a batch > 1; the batched path was not exercised")
	}
}

// TestServeBitIdenticalToSingleSample sweeps the one-replica batcher over
// a dense and a conv twin, serial and parallel.
func TestServeBitIdenticalToSingleSample(t *testing.T) {
	for _, par := range []int{1, 4} {
		for _, twin := range []string{"mlp", "resnet"} {
			t.Run(fmt.Sprintf("%s/par=%d", twin, par), func(t *testing.T) {
				prev := tensor.SetParallelism(par)
				defer tensor.SetParallelism(prev)
				checkBitIdentical(t, twin, 1)
			})
		}
	}
}

// TestServeResultsMatchRequests pins per-request routing: with every
// sample tagged by a distinct constant, each response must carry its own
// request's payload regardless of how requests interleave into batches.
func TestServeResultsMatchRequests(t *testing.T) {
	const nReq = 128
	svc := oneReplica(t, NewSession(identityModel{}, 8), FleetConfig{
		MaxBatch: 8, MaxWait: time.Millisecond, QueueDepth: nReq,
	})
	defer svc.Close()
	var wg sync.WaitGroup
	for i := 0; i < nReq; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			x := tensor.Full(float32(i), 8)
			res, err := svc.Predict(x)
			if err != nil {
				t.Errorf("request %d: %v", i, err)
				return
			}
			for _, v := range res.Output {
				if v != float32(i) {
					t.Errorf("request %d got payload %g from another request", i, v)
					return
				}
			}
		}(i)
	}
	wg.Wait()
}

// TestServeAdmissionControl saturates a tiny queue behind a slow model
// and checks that excess load is shed with ErrOverloaded rather than
// queued without bound.
func TestServeAdmissionControl(t *testing.T) {
	svc := oneReplica(t, NewSession(&slowModel{delay: 5 * time.Millisecond}, 4), FleetConfig{
		MaxBatch: 1, QueueDepth: 1,
	})
	defer svc.Close()

	const nReq = 32
	var shed, ok atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < nReq; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err := svc.Predict(tensor.New(4))
			switch {
			case err == nil:
				ok.Add(1)
			case errors.Is(err, ErrOverloaded):
				shed.Add(1)
			default:
				t.Errorf("unexpected error: %v", err)
			}
		}()
	}
	wg.Wait()
	if shed.Load() == 0 {
		t.Fatal("expected some requests to be shed under overload")
	}
	if ok.Load() == 0 {
		t.Fatal("expected some requests to be served under overload")
	}
	snap := svc.Stats()
	if snap.RejectedOverload != uint64(shed.Load()) {
		t.Fatalf("stats rejected=%d, want %d", snap.RejectedOverload, shed.Load())
	}
	if snap.Completed != uint64(ok.Load()) {
		t.Fatalf("stats completed=%d, want %d", snap.Completed, ok.Load())
	}
}

// TestServeMaxWaitFlushesPartialBatch: a lone request must not wait for
// a full batch — the deadline flushes it.
func TestServeMaxWaitFlushesPartialBatch(t *testing.T) {
	svc := oneReplica(t, NewSession(identityModel{}, 2), FleetConfig{
		MaxBatch: 64, MaxWait: 5 * time.Millisecond, QueueDepth: 64,
	})
	defer svc.Close()

	start := time.Now()
	res, err := svc.Predict(tensor.Full(3, 2))
	if err != nil {
		t.Fatal(err)
	}
	if res.BatchSize != 1 {
		t.Fatalf("lone request batch size = %d, want 1", res.BatchSize)
	}
	if waited := time.Since(start); waited > time.Second {
		t.Fatalf("lone request waited %v; deadline flush failed", waited)
	}
}

// TestServeShapeValidation rejects wrong-size samples before queueing.
func TestServeShapeValidation(t *testing.T) {
	svc := oneReplica(t, NewSession(identityModel{}, 4), FleetConfig{MaxBatch: 4})
	defer svc.Close()
	if _, err := svc.Predict(tensor.New(5)); err == nil {
		t.Fatal("wrong-size sample must be rejected")
	}
	if _, err := svc.Predict(nil); err == nil {
		t.Fatal("nil sample must be rejected")
	}
}

// TestServeForwardPanicFailsBatch: a panicking forward pass must fail
// the batch's requests with an error, not kill the runner.
func TestServeForwardPanicFailsBatch(t *testing.T) {
	svc := oneReplica(t, NewSession(panicModel{}, 2), FleetConfig{MaxBatch: 4, QueueDepth: 8})
	defer svc.Close()
	if _, err := svc.Predict(tensor.New(2)); err == nil {
		t.Fatal("panicking forward must surface as an error")
	}
	// The runner survives and keeps answering.
	if _, err := svc.Predict(tensor.New(2)); err == nil {
		t.Fatal("second request should also error, not hang")
	}
	if snap := svc.Stats(); snap.Failed == 0 {
		t.Fatal("failed requests not counted")
	}
}

// TestServeStatsAndTrace checks the observability wiring: counters add
// up, latency quantiles are populated, occupancy reflects batching, the
// lifetime latency histogram counts every completed request once, and
// the profiler keeps one batch span up to its record cap and counts the
// rest as dropped.
func TestServeStatsAndTrace(t *testing.T) {
	const traceCap = 4
	svc := oneReplica(t, NewSession(identityModel{}, 4), FleetConfig{
		MaxBatch: 8, MaxWait: time.Millisecond, QueueDepth: 128,
	})
	defer svc.Close()
	capture(t, traceCap)

	const nReq = 96
	var wg sync.WaitGroup
	for i := 0; i < nReq; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := svc.Predict(tensor.New(4)); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()

	snap := svc.Stats()
	if snap.Accepted != nReq || snap.Completed != nReq {
		t.Fatalf("accepted=%d completed=%d, want %d", snap.Accepted, snap.Completed, nReq)
	}
	if snap.Batches == 0 || snap.Batches > nReq {
		t.Fatalf("batches=%d out of range", snap.Batches)
	}
	if snap.MeanOccupancy < 1 {
		t.Fatalf("mean occupancy %g < 1", snap.MeanOccupancy)
	}
	if snap.LatencyP50Ms <= 0 || snap.LatencyP99Ms < snap.LatencyP50Ms {
		t.Fatalf("latency quantiles inconsistent: p50=%g p99=%g", snap.LatencyP50Ms, snap.LatencyP99Ms)
	}
	checkLatencyCount(t, svc, snap.Completed)

	// 96 requests at cap 8 are at least 12 batches: the profiler keeps the
	// first traceCap batch spans and counts the rest as dropped.
	spans := batchSpans(t, snap.Batches)
	if len(spans) != traceCap {
		t.Fatalf("batch spans %d, want the record cap's %d", len(spans), traceCap)
	}
}

// capture starts a fresh profiler capture holding at most maxRecords
// spans, undone when the test ends.
func capture(t *testing.T, maxRecords int) {
	t.Helper()
	prof.EnableWithMaxRecords(maxRecords)
	t.Cleanup(func() {
		prof.Disable()
		prof.SetMaxRecords(0)
	})
}

// batchSpans returns the captured serve.rK.batch spans and checks that,
// with the ones past the record cap, there is one per flushed batch, and
// that each carries its input bytes and a duration. The test models open
// no spans of their own, so every dropped span was a batch.
func batchSpans(t *testing.T, batches uint64) []prof.Record {
	t.Helper()
	var spans []prof.Record
	for _, rec := range prof.Current(prof.Meta{}).Ranks[0].Records {
		if rec.Cat != prof.CatServe {
			continue
		}
		if !strings.HasPrefix(rec.Name, "serve.r") || !strings.HasSuffix(rec.Name, ".batch") {
			t.Fatalf("serve span named %q", rec.Name)
		}
		if rec.Bytes <= 0 || rec.Dur <= 0 {
			t.Fatalf("batch span %q: %d bytes over %v", rec.Name, rec.Bytes, rec.Dur)
		}
		spans = append(spans, rec)
	}
	if got := uint64(len(spans)) + prof.Current(prof.Meta{}).Dropped; got != batches {
		t.Fatalf("batch spans %d + dropped %d != batches %d", len(spans), prof.Current(prof.Meta{}).Dropped, batches)
	}
	return spans
}

// checkLatencyCount: the replicas' rolling latency histograms hold each
// completed request exactly once over their lifetime.
func checkLatencyCount(t *testing.T, f *Fleet, completed uint64) {
	t.Helper()
	var n uint64
	for _, r := range f.replicas {
		n += r.stats.latency.Cumulative().Count()
	}
	if n != completed {
		t.Fatalf("lifetime latency count %d, want completed %d", n, completed)
	}
}

// TestServeCPUBudgetClamp: concurrent fleets must divide GOMAXPROCS
// between their runners instead of multiplying the worker pool, and the
// user's parallelism setting must come back when the last fleet closes.
func TestServeCPUBudgetClamp(t *testing.T) {
	procs := runtime.GOMAXPROCS(0)
	want := 8
	if want > procs {
		want = procs
	}
	prev := tensor.SetParallelism(want)
	defer tensor.SetParallelism(prev)
	base := tensor.Parallelism()

	var svcs []*Fleet
	for i := 1; i <= 4; i++ {
		svcs = append(svcs, oneReplica(t, NewSession(identityModel{}, 2), FleetConfig{MaxBatch: 2}))
		got := tensor.Parallelism()
		limit := procs / i
		if limit < 1 {
			limit = 1
		}
		if limit > base {
			limit = base
		}
		if got > limit {
			t.Fatalf("with %d runners, parallelism=%d exceeds budget %d (GOMAXPROCS=%d)", i, got, limit, procs)
		}
	}
	if ActiveServices() != 4 {
		t.Fatalf("ActiveServices=%d, want 4", ActiveServices())
	}
	for _, s := range svcs {
		s.Close()
	}
	if got := tensor.Parallelism(); got != base {
		t.Fatalf("parallelism after last close = %d, want restored %d", got, base)
	}
	if ActiveServices() != 0 {
		t.Fatalf("ActiveServices=%d after closing all", ActiveServices())
	}
}

// TestServeLoadGen drives the closed-loop generator against a real
// batcher and checks its accounting.
func TestServeLoadGen(t *testing.T) {
	svc := oneReplica(t, NewSession(identityModel{}, 4), FleetConfig{
		MaxBatch: 8, MaxWait: 500 * time.Microsecond, QueueDepth: 64,
	})
	defer svc.Close()

	x := tensor.New(4)
	res := LoadGen{Concurrency: 4, Duration: 100 * time.Millisecond}.Run(func(w int) error {
		_, err := svc.Predict(x)
		return err
	})
	if res.Requests == 0 {
		t.Fatal("load generator issued no requests")
	}
	if res.ThroughputRPS <= 0 {
		t.Fatal("throughput not computed")
	}
	if res.Latency.Count() != res.Requests {
		t.Fatalf("latency count %d != requests %d", res.Latency.Count(), res.Requests)
	}
	if res.P99Ms() < res.P50Ms() {
		t.Fatalf("p99 %g < p50 %g", res.P99Ms(), res.P50Ms())
	}
}

// ActiveServices reports how many replica runners currently share the
// CPU budget (test and observability hook).
func ActiveServices() int {
	cpuBudget.mu.Lock()
	defer cpuBudget.mu.Unlock()
	return cpuBudget.active
}
