package serve

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"tbd/internal/prof"
	"tbd/internal/tensor"
)

// Fleet is the serving front end: N batch runners (one Session and one
// goroutine each) behind a router; see the package comment for the
// picture. Weights are frozen, then shared: the primary session is frozen
// once (Session.Freeze, fp16 storage under HalfWeights) and every other
// replica adopts its frozen matrices and aliases its other parameters
// (Session.ShareWeightsFrom), so N replicas cost the resident weights of
// one model in either precision; what stays per-replica is exactly what
// concurrency needs — the layer output buffers, a batch-assembly
// workspace, and the admission queue.
//
// The router picks the replica with the smallest estimated completion
// time, computed from live queue depth and each replica's recent median
// batch time (a rotating-window histogram, so the signal tracks the
// current load, not the lifetime average). Requests may carry an SLO
// budget: when no replica can plausibly meet it the request is shed at
// admission with ErrDeadline, and a request that expires while queued is
// shed at dequeue instead of wasting a forward on it.
//
// Fleet.Swap replaces the weights of every replica with zero downtime:
// fresh sessions are built, the checkpoint is loaded into the primary,
// which is then frozen and shared, a canary forward validates the new
// weights, and replicas are flipped one at a time by a control message
// that drains behind in-flight batches.
type Fleet struct {
	cfg      FleetConfig
	factory  func() (*Session, error)
	replicas []*replica
	shared   bool // replicas alias one weight snapshot
	start    time.Time

	// admit is the admission guard: a producer holds it read-locked from
	// its closing check through its enqueue, and Close write-locks it to
	// set closing, so nothing is enqueued once the queues may close.
	admit     sync.RWMutex
	closing   bool // guarded by admit
	closeOnce sync.Once

	// swapMu serializes Swap calls; it is never held on the request path.
	swapMu sync.Mutex

	// Router-side shed counters. Rejections happen before a replica is
	// chosen, so they live on the fleet, not in any replica's Stats.
	rejOverload atomic.Uint64
	rejDeadline atomic.Uint64
	rejShutdown atomic.Uint64

	swaps      atomic.Uint64
	lastSwapNs atomic.Int64

	// rr rotates the router's tie-break so equally-idle replicas take
	// turns instead of piling onto replica 0.
	rr atomic.Uint64
}

// Sentinel errors of the admission path.
var (
	// ErrOverloaded is returned when the admission queue is full; the
	// request was shed without queueing (backpressure to the caller).
	ErrOverloaded = errors.New("serve: overloaded, request shed")
	// ErrShuttingDown is returned for requests arriving after Close
	// began; already-admitted requests still complete (graceful drain).
	ErrShuttingDown = errors.New("serve: shutting down")
	// ErrDeadline is returned when a request's SLO budget cannot be met:
	// either the router judged every replica infeasible at admission, or
	// the deadline had already passed when the request was dequeued.
	// Distinct from ErrOverloaded so clients can tell "queue full, retry
	// now elsewhere" (429-class) from "deadline infeasible, back off"
	// (503-class).
	ErrDeadline = errors.New("serve: SLO deadline infeasible, request shed")
	// ErrNoWeightSharing is returned by Session.ShareWeightsFrom when the
	// model does not implement ShareParamsFrom; a fleet then keeps
	// per-replica weight copies instead of one shared snapshot.
	ErrNoWeightSharing = errors.New("serve: model does not support weight sharing")
)

// Result is one completed request.
type Result struct {
	// Output is the request's slice of the network output, copied out of
	// the layer-owned batch result (safe to retain).
	Output []float32
	// Latency is the full request residence time: queue wait + batch
	// formation wait + forward compute.
	Latency time.Duration
	// BatchSize is the occupancy of the batch this request rode in.
	BatchSize int
	// Replica is the index of the replica that served the request.
	Replica int
}

// request is one item on a replica queue: a sample awaiting a forward
// pass, or (swap non-nil) a hot-swap control message riding the same
// FIFO.
type request struct {
	x        *tensor.Tensor
	enq      time.Time
	deadline time.Time  // zero means no SLO budget attached
	swap     *swapOrder // non-nil marks a control message, not work
	resp     chan response
}

type response struct {
	res Result
	err error
}

// FleetConfig tunes a Fleet. MaxBatch, MaxWait, and QueueDepth apply per
// replica.
type FleetConfig struct {
	// Replicas is the number of batch runners. Defaults to 1.
	Replicas int
	// MaxBatch caps how many requests one forward pass coalesces. 1
	// disables batching (every request is its own forward).
	MaxBatch int
	// MaxWait bounds how long the first request of a batch waits for
	// company before the batch is flushed anyway. 0 means flush
	// immediately with whatever is already queued (no deadline timer).
	MaxWait time.Duration
	// QueueDepth bounds each replica's admission queue. Predict calls that
	// find every feasible queue full are shed with ErrOverloaded instead
	// of piling up unbounded latency. Defaults to 4*MaxBatch.
	QueueDepth int
	// SLO is the default latency budget attached to requests that do not
	// carry one, and the router's p99 steering target: replicas whose
	// recent p99 exceeds it are deprioritized. 0 disables both.
	SLO time.Duration
	// HalfWeights picks fp16 storage for the frozen weights (fp32
	// otherwise). NewFleet fails if the model does not support freezing.
	HalfWeights bool
}

func (c FleetConfig) withDefaults() FleetConfig {
	if c.Replicas <= 0 {
		c.Replicas = 1
	}
	if c.MaxBatch <= 0 {
		c.MaxBatch = 1
	}
	if c.MaxWait < 0 {
		c.MaxWait = 0
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 4 * c.MaxBatch
	}
	if c.SLO < 0 {
		c.SLO = 0
	}
	return c
}

// replica is one batch runner: a queue, a session slot, and the live
// signals the router steers on. The session lives in an atomic pointer
// because Swap replaces it from outside the runner goroutine.
type replica struct {
	id    int
	fleet *Fleet
	queue chan *request
	sess  atomic.Pointer[Session]
	stats *Stats

	// queued counts admitted requests not yet completed (queue residents
	// plus the in-flight batch); the router's queue-depth signal.
	queued atomic.Int64

	// Router control signals, refreshed by the runner after every flush
	// from the windows of stats' rolling histograms: float64 bits of the
	// recent median batch time and recent p99 request latency in seconds.
	// Atomics so the router reads them lock-free.
	batchP50  atomic.Uint64
	recentP99 atomic.Uint64

	// buf is the replica-owned batch workspace (capacity MaxBatch x
	// sampleLen), touched only by the runner goroutine. Assembling batches
	// here instead of the shared tensor pool keeps N runners from
	// contending on the pool mutex every flush.
	buf []float32

	spanName string // per-replica profiler span, e.g. "serve.r2.batch"

	runnerWG sync.WaitGroup
}

// swapOrder is the hot-swap control message. It rides the replica queue
// like a request, so FIFO order guarantees every batch admitted before
// the swap drains through the old session first.
type swapOrder struct {
	sess *Session
	done chan error
}

// NewFleet builds cfg.Replicas sessions with factory, freezes the
// primary's weights and shares them with the other replicas (each step
// where the model supports it; see freezeAndShare), and starts one
// runner per replica. Every factory call must produce a same-architecture
// session; the fleet routes requests across them as one service. The
// caller must Close the fleet to release the runners and their CPU
// budget shares.
func NewFleet(factory func() (*Session, error), cfg FleetConfig) (*Fleet, error) {
	if factory == nil {
		return nil, errors.New("serve: fleet needs a session factory")
	}
	cfg = cfg.withDefaults()
	sessions := make([]*Session, cfg.Replicas)
	for i := range sessions {
		s, err := factory()
		if err != nil {
			return nil, fmt.Errorf("serve: fleet replica %d: %w", i, err)
		}
		if s == nil {
			return nil, fmt.Errorf("serve: fleet replica %d: factory returned nil session", i)
		}
		if i > 0 && s.sampleLen != sessions[0].sampleLen {
			return nil, fmt.Errorf("serve: fleet replica %d has sample length %d, replica 0 has %d",
				i, s.sampleLen, sessions[0].sampleLen)
		}
		sessions[i] = s
	}

	shared, err := freezeAndShare(sessions, cfg.HalfWeights)
	if err != nil {
		return nil, fmt.Errorf("serve: fleet: %w", err)
	}

	f := &Fleet{
		cfg:     cfg,
		factory: factory,
		shared:  shared,
		start:   time.Now(),
	}
	f.replicas = make([]*replica, cfg.Replicas)
	for i, s := range sessions {
		r := &replica{
			id:       i,
			fleet:    f,
			queue:    make(chan *request, cfg.QueueDepth),
			stats:    newStats(cfg.MaxBatch),
			buf:      make([]float32, cfg.MaxBatch*s.sampleLen),
			spanName: fmt.Sprintf("serve.r%d.batch", i),
		}
		r.sess.Store(s)
		f.replicas[i] = r
	}
	for _, r := range f.replicas {
		acquireCPUBudget() // each runner takes one share of the GEMM parallelism
		r.runnerWG.Add(1)
		go r.run()
	}
	return f, nil
}

// Config returns the fleet's effective (defaulted) configuration.
func (f *Fleet) Config() FleetConfig { return f.cfg }

// SharedWeights reports whether the replicas alias one weight snapshot.
func (f *Fleet) SharedWeights() bool { return f.shared }

// Replicas returns the number of batch runners.
func (f *Fleet) Replicas() int { return len(f.replicas) }

// Close stops admission, drains every admitted request through the
// runners, and releases the fleet's CPU budget shares. Idempotent and
// safe to call concurrently with Predict and Swap.
func (f *Fleet) Close() {
	f.closeOnce.Do(func() {
		f.admit.Lock() // no producer is still about to enqueue
		f.closing = true
		f.admit.Unlock()
		for _, r := range f.replicas {
			close(r.queue)
		}
		for _, r := range f.replicas {
			r.runnerWG.Wait()
			releaseCPUBudget()
		}
	})
}

// Swap replaces every replica's weights with zero downtime. It builds
// fresh sessions with the fleet's factory, hands the primary to load
// (typically dist.LoadCheckpoint via Session.Model), freezes it and
// shares it with the other fresh sessions as NewFleet does, validates
// the result with a full-width canary forward, and then flips replicas
// one at a time: each flip is a control message through the replica's
// queue, so every in-flight batch drains through the old weights and the
// next batch runs on the new ones — no request is ever failed or served
// by a half-swapped replica. On any error before the first flip the old
// sessions keep serving untouched.
func (f *Fleet) Swap(load func(primary *Session) error) error {
	f.swapMu.Lock()
	defer f.swapMu.Unlock()
	f.admit.RLock()
	closing := f.closing
	f.admit.RUnlock()
	if closing {
		return ErrShuttingDown
	}
	t0 := time.Now()

	fresh := make([]*Session, len(f.replicas))
	for i := range fresh {
		s, err := f.factory()
		if err != nil {
			return fmt.Errorf("serve: swap replica %d: %w", i, err)
		}
		if s == nil || s.sampleLen != f.replicas[0].sess.Load().sampleLen {
			return fmt.Errorf("serve: swap replica %d: factory session incompatible with fleet", i)
		}
		fresh[i] = s
	}
	if load != nil {
		// Sharing after the load makes one load serve every replica;
		// unshared fleets load each copy.
		targets := fresh[:1]
		if !f.shared {
			targets = fresh
		}
		for i, s := range targets {
			if err := load(s); err != nil {
				return fmt.Errorf("serve: swap load into replica %d: %w", i, err)
			}
		}
	}
	if _, err := freezeAndShare(fresh, f.cfg.HalfWeights); err != nil {
		return fmt.Errorf("serve: swap: %w", err)
	}
	// Canary: a full-width forward through every fresh session (in its
	// final storage format) must produce finite outputs, and warms the
	// per-layer buffers so the first real batch pays no allocation spike.
	for i, s := range fresh {
		if err := canaryForward(s, f.cfg.MaxBatch); err != nil {
			return fmt.Errorf("serve: swap aborted by canary on replica %d: %w", i, err)
		}
	}

	for i, r := range f.replicas {
		ord := &swapOrder{sess: fresh[i], done: make(chan error, 1)}
		if err := f.submitSwap(r, ord); err != nil {
			return fmt.Errorf("serve: swap interrupted at replica %d: %w", i, err)
		}
		if err := <-ord.done; err != nil {
			return fmt.Errorf("serve: swap replica %d: %w", i, err)
		}
	}
	f.swaps.Add(1)
	f.lastSwapNs.Store(int64(time.Since(t0)))
	return nil
}

// freezeAndShare freezes sessions[0] (fp16 storage when half) and has
// every other session adopt its frozen matrices and alias its remaining
// weights, and reports whether the sessions now share one snapshot. A
// model that cannot share keeps per-replica copies, each frozen on its
// own; one that cannot freeze serves its weights as they are, unless
// half asks for fp16 storage, which is an error.
func freezeAndShare(sessions []*Session, half bool) (bool, error) {
	if !sessions[0].Freeze(half) && half {
		return false, errors.New("model does not support fp16 weight freezing")
	}
	for i := 1; i < len(sessions); i++ {
		err := sessions[i].ShareWeightsFrom(sessions[0])
		if errors.Is(err, ErrNoWeightSharing) {
			for _, s := range sessions[1:] {
				s.Freeze(half)
			}
			return false, nil
		}
		if err != nil {
			return false, fmt.Errorf("replica %d: %w", i, err)
		}
	}
	return len(sessions) > 1, nil
}

// submitSwap enqueues a swap order behind the replica's pending work.
// It takes the admission guard exactly like Predict.
func (f *Fleet) submitSwap(r *replica, ord *swapOrder) error {
	f.admit.RLock()
	defer f.admit.RUnlock()
	if f.closing {
		return ErrShuttingDown
	}
	r.queue <- &request{swap: ord}
	return nil
}

// canaryForward validates a session with a zero-filled full-width batch:
// the forward must not panic and must produce finite outputs.
func canaryForward(s *Session, maxBatch int) error {
	shape := append(make([]int, 0, len(s.sampleShape)+1), maxBatch)
	shape = append(shape, s.sampleShape...)
	out, err := inferSessionSafe(s, tensor.New(shape...))
	if err != nil {
		return err
	}
	for _, v := range out.Data() {
		if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
			return errors.New("non-finite canary output")
		}
	}
	return nil
}

// inferSessionSafe runs a forward pass, converting panics into errors.
func inferSessionSafe(s *Session, x *tensor.Tensor) (out *tensor.Tensor, err error) {
	defer func() {
		if p := recover(); p != nil {
			out, err = nil, fmt.Errorf("serve: forward pass failed: %v", p)
		}
	}()
	return s.InferBatch(x), nil
}

// run is the replica's batcher loop: block for the first item, then
// collect until the batch is full or the queue has nothing more to give
// — MaxWait elapsed, or with no deadline timer nothing already queued —
// flush, repeat. Exits when the queue is closed and drained. A swap
// order closes the batch it arrives behind; the batch is flushed through
// the old session and the flip happens after (FIFO drain).
func (r *replica) run() {
	defer r.runnerWG.Done()
	cfg := r.fleet.cfg
	batch := make([]*request, 0, cfg.MaxBatch)
	var timer *time.Timer
	if cfg.MaxWait > 0 && cfg.MaxBatch > 1 {
		timer = time.NewTimer(cfg.MaxWait)
		if !timer.Stop() {
			<-timer.C
		}
		defer timer.Stop()
	}
	for q := range r.queue {
		batch = batch[:0]
		// The deadline runs from the arrival of the batch's first
		// request: it bounds that request's batching delay.
		armed := timer != nil && q.swap == nil
		if armed {
			timer.Reset(cfg.MaxWait)
		}
		// q leaves this loop nil (batch closed: full, timed out, queue
		// empty or closed — a closed queue yields the nil zero value) or
		// holding the swap order that cut the batch short.
		for q != nil && q.swap == nil {
			batch = append(batch, q)
			q = nil
			if len(batch) == cfg.MaxBatch {
				break
			}
			if timer == nil {
				select {
				case q = <-r.queue:
				default:
				}
			} else {
				select {
				case q = <-r.queue:
				case <-timer.C:
					armed = false
				}
			}
		}
		if armed && !timer.Stop() {
			<-timer.C
		}
		if len(batch) > 0 {
			r.flush(batch)
		}
		if q != nil {
			r.applySwap(q.swap)
		}
	}
}

// applySwap flips the replica to the new session. Reached only between
// flushes, so the old session has no forward in flight.
func (r *replica) applySwap(ord *swapOrder) {
	r.sess.Store(ord.sess)
	ord.done <- nil
}

// flush sheds expired requests, assembles the rest in the replica-owned
// workspace, runs the forward, and fans rows back out in submission
// order. A panicking forward (e.g. an out-of-vocabulary token id reaching
// an embedding layer) fails the batch's requests, not the runner.
func (r *replica) flush(batch []*request) {
	f := r.fleet
	now := time.Now()
	live := batch[:0]
	expired := 0
	for _, q := range batch {
		if !q.deadline.IsZero() && now.After(q.deadline) {
			r.stats.rejectDeadline() // counted before answered, as a batch is
			q.resp <- response{err: ErrDeadline}
			expired++
			continue
		}
		live = append(live, q)
	}
	if expired > 0 {
		r.queued.Add(-int64(expired))
	}
	n := len(live)
	if n == 0 {
		return
	}

	sess := r.sess.Load()
	L := sess.sampleLen // NewFleet and Swap pin it fleet-wide, so buf always fits
	buf := r.buf[:n*L]
	for i, q := range live {
		copy(buf[i*L:(i+1)*L], q.x.Data())
	}
	shape := append(make([]int, 0, len(sess.sampleShape)+1), n)
	shape = append(shape, sess.sampleShape...)
	x := tensor.FromSlice(buf, shape...)

	sp := prof.Begin(prof.CatServe, r.spanName)
	if sp.Active() {
		sp.SetBytes(4 * int64(x.Numel()))
	}
	t0 := time.Now()
	out, err := inferSessionSafe(sess, x)
	dur := time.Since(t0)
	sp.End()

	// Feed the profiler's memory watermark with the serving-side liveness
	// peak: resident weights (frozen, halved under HalfWeights) plus the pool's
	// pack workspace. No gradients, stash, or optimizer state exist on the
	// inference path.
	if prof.Enabled() {
		_, packBytes := tensor.PoolRetainedBytes()
		prof.SampleMemory(f.residentWeightBytes(), 0, 0, packBytes, 0)
	}

	// Count a batch before answering it, so a caller that has its result
	// never reads stats that miss it.
	if err != nil {
		r.queued.Add(-int64(n))
		r.stats.failBatch(n)
		for _, q := range live {
			q.resp <- response{err: err}
		}
		return
	}

	rowLen := out.Numel() / n
	done := time.Now()
	r.queued.Add(-int64(n))
	r.stats.recordBatch(live, dur, done)
	for i, q := range live {
		q.resp <- response{res: Result{
			Output:    append([]float32(nil), out.Data()[i*rowLen:(i+1)*rowLen]...),
			Latency:   done.Sub(q.enq),
			BatchSize: n,
			Replica:   r.id,
		}}
	}

	// Refresh the router's control signals from the rolling windows.
	r.batchP50.Store(math.Float64bits(r.stats.batchTime.Snapshot().Quantile(0.50)))
	r.recentP99.Store(math.Float64bits(r.stats.latency.Snapshot().Quantile(0.99)))
}

// residentWeightBytes is the fleet's actual weight footprint: one
// snapshot when storage is shared, the sum of the copies otherwise.
func (f *Fleet) residentWeightBytes() int64 {
	if f.shared {
		return f.replicas[0].sess.Load().WeightBytes()
	}
	var total int64
	for _, r := range f.replicas {
		total += r.sess.Load().WeightBytes()
	}
	return total
}
