// Package prof is the live training profiler: the runtime half of the
// paper's analysis pipeline (Figure 3), pointed at the real numeric
// engine instead of the simulator. It captures per-op spans — wall time,
// FLOPs, bytes moved, and tensor-pool acquire/hit deltas — from the GEMM
// and convolution kernels, layer forward/backward calls, training-step
// phases, optimizer updates, and serving batches, and aggregates them
// into the per-kernel tables and timelines the paper builds from
// nvprof/CUPTI captures.
//
// The profiler is always compiled in and gated by one atomic load: with
// profiling disabled, Begin reads the gate and returns a zero Span, End
// is a nil-time check, and no allocation or clock read happens anywhere
// on the path. Instrumented code therefore never needs build tags or
// wrapper indirection, and the engine's numeric results are bit-identical
// with the profiler on or off (spans only observe).
//
// prof sits below every engine package: it imports only the standard
// library and internal/report. internal/tensor installs the pool-counter
// source at init so spans can attribute buffer churn without prof
// depending on tensor.
package prof

import (
	"sync"
	"sync/atomic"
	"time"
)

// Cat classifies a span for aggregation and timeline coloring.
type Cat uint8

const (
	// CatKernel marks numeric kernel entry points (GEMM, conv, im2col,
	// loss) — the rows of the paper's per-kernel tables.
	CatKernel Cat = iota
	// CatForward and CatBackward mark per-layer calls.
	CatForward
	CatBackward
	// CatPhase marks training-step phases (forward/loss/backward/update).
	CatPhase
	// CatOptim marks optimizer update sweeps.
	CatOptim
	// CatServe marks serving batches.
	CatServe
	// CatComm marks distributed-communication rounds (ring all-reduce
	// passes, parameter-server push/pull): the span's bytes field carries
	// the wire volume, its duration the time training was blocked on the
	// network.
	CatComm
)

// catNames are the category labels of stats tables and trace files.
var catNames = [...]string{CatKernel: "kernel", CatForward: "fwd", CatBackward: "bwd", CatPhase: "phase",
	CatOptim: "optim", CatServe: "serve", CatComm: "comm"}

// String returns the category's label.
func (c Cat) String() string {
	if int(c) < len(catNames) {
		return catNames[c]
	}
	return "other"
}

// enabled is the global capture gate: the only state the disabled fast
// path touches.
var enabled atomic.Bool

// nextSpanID hands out span IDs while a capture runs. IDs restart at 1 on
// every Enable so a recorded trace's edges are stable run-to-run.
var nextSpanID atomic.Uint64

// ambientSpan is the ID of the innermost open span on the (single)
// instrumented control-flow path — the implicit parent a plain Begin
// attaches to. Begin swaps itself in; End restores its predecessor with a
// compare-and-swap, so an End racing with a concurrent goroutine's Begin
// never clobbers the newer span: the CAS simply fails and that goroutine's
// own End heals the chain. Under the single-goroutine training loops the
// replay recorder targets, the edges are exact; concurrent spans (serving
// runners, comm helpers) may at worst attach to the nearest enclosing
// phase, never corrupt memory.
var ambientSpan atomic.Uint64

// poolSource reports the shared tensor pool's cumulative (gets, hits).
// internal/tensor installs it at package init (before any goroutine can
// profile), so reads here need no synchronization.
var poolSource func() (gets, hits uint64)

// SetPoolCounterSource installs the function spans use to read pool
// acquire/hit counters. Called from package init of the pool's owner.
func SetPoolCounterSource(fn func() (gets, hits uint64)) { poolSource = fn }

// kernelTier is the label of the GEMM micro-kernel tier the engine is
// dispatching to (ref/sse/avx2). internal/tensor stores it whenever the
// tier changes; snapshots stamp it so per-kernel GFLOP/s numbers are
// attributable to a tier. atomic.Value because tests switch tiers while
// the /debug/prof endpoint may be reading.
var kernelTier atomic.Value // string

// SetKernelTier records the active GEMM kernel tier label.
func SetKernelTier(name string) { kernelTier.Store(name) }

// KernelTier returns the recorded GEMM kernel tier label ("" before the
// engine has selected one).
func KernelTier() string {
	s, _ := kernelTier.Load().(string)
	return s
}

// defaultMaxRecords bounds the retained span timeline (~4.7 MB). Stats
// aggregation is unaffected by the cap; only the Chrome-trace window
// truncates, with the overflow counted in Dropped.
const defaultMaxRecords = 1 << 16

// Record is one completed span, timestamped relative to the Enable call.
// ID and Parent carry the dependence edge the what-if replay engine
// consumes: Parent is the ID of the span that was innermost when this one
// began (0 for a root), so the flat completion-ordered timeline losslessly
// encodes the step → phase → layer → kernel tree.
type Record struct {
	ID       uint64
	Parent   uint64
	Name     string
	Cat      Cat
	Start    time.Duration
	Dur      time.Duration
	FLOPs    float64
	Bytes    int64
	PoolGets uint64
	PoolHits uint64
}

// aggKey identifies one stats row.
type aggKey struct {
	name string
	cat  Cat
}

// aggVal accumulates one stats row.
type aggVal struct {
	count    uint64
	total    time.Duration
	flops    float64
	bytes    int64
	poolGets uint64
	poolHits uint64
}

// collector is the capture state behind the gate. One mutex serializes
// record appends from any goroutine; at a few hundred spans per training
// step the lock is far below the <3% enabled-overhead budget.
var collector struct {
	mu       sync.Mutex
	epoch    time.Time          // guarded by mu
	stopped  time.Time          // zero while capturing; guarded by mu
	recs     []Record           // guarded by mu
	maxRecs  int                // guarded by mu
	dropped  uint64             // guarded by mu
	agg      map[aggKey]*aggVal // guarded by mu
	mem      MemWatermark       // guarded by mu
	memTotal int64              // running max of the summed sample; guarded by mu
}

// Enable starts a fresh capture: previous records, aggregates, and the
// memory watermark are discarded and the span clock restarts at zero.
func Enable() {
	collector.mu.Lock()
	if collector.maxRecs == 0 {
		collector.maxRecs = defaultMaxRecords
	}
	collector.epoch = time.Now()
	collector.stopped = time.Time{}
	collector.recs = collector.recs[:0]
	collector.dropped = 0
	collector.agg = make(map[aggKey]*aggVal)
	collector.mem = MemWatermark{}
	collector.memTotal = 0
	collector.mu.Unlock()
	nextSpanID.Store(0)
	ambientSpan.Store(0)
	enabled.Store(true)
}

// EnableWithMaxRecords starts a fresh capture whose retained timeline
// holds up to n records before Dropped starts counting — the knob the
// trace recorder uses so a full-fidelity run never silently truncates
// the spans replay needs. n <= 0 selects the default cap. Like
// SetMaxRecords, the cap persists until changed again.
func EnableWithMaxRecords(n int) {
	SetMaxRecords(n)
	Enable()
}

// Disable stops the capture, freezing the wall-clock span that Stats
// reports percentages against. Captured data stays readable until the
// next Enable.
func Disable() {
	enabled.Store(false)
	collector.mu.Lock()
	if !collector.epoch.IsZero() && collector.stopped.IsZero() {
		collector.stopped = time.Now()
	}
	collector.mu.Unlock()
}

// Enabled reports whether a capture is running.
func Enabled() bool { return enabled.Load() }

// SetMaxRecords bounds the retained span timeline for the NEXT Enable.
// n <= 0 restores the default.
func SetMaxRecords(n int) {
	collector.mu.Lock()
	if n <= 0 {
		n = defaultMaxRecords
	}
	collector.maxRecs = n
	collector.mu.Unlock()
}

// Span is one in-flight measurement. The zero Span (returned when
// profiling is off) makes every method a no-op, so instrumented code
// carries no conditionals. Spans are values: they live on the
// instrumented function's stack and never allocate.
type Span struct {
	name    string
	t0      time.Time
	flops   float64
	bytes   int64
	g0      uint64
	h0      uint64
	id      uint64
	parent  uint64
	prevAmb uint64
	cat     Cat
}

// Begin opens a span. name must be a preexisting string (a constant or a
// stored layer name) — building one at the call site would allocate even
// when profiling is off. The span's parent edge attaches to the innermost
// span currently open (the ambient parent), which is exact on the
// single-goroutine training path.
func Begin(cat Cat, name string) Span {
	if !enabled.Load() {
		return Span{}
	}
	var g, h uint64
	if poolSource != nil {
		g, h = poolSource()
	}
	id := nextSpanID.Add(1)
	prev := ambientSpan.Swap(id)
	return Span{name: name, cat: cat, g0: g, h0: h, id: id, parent: prev, prevAmb: prev, t0: time.Now()}
}

// BeginChild opens a span whose parent edge is pinned to an explicit
// enclosing span rather than inferred from the ambient chain — the idiom
// the train-step drivers use so phase spans always hang off their step
// even if a concurrent goroutine disturbed the ambient parent. A nil or
// inactive parent yields a root span. Like Begin, the returned span
// becomes the new ambient parent for spans opened inside it.
func BeginChild(parent *Span, cat Cat, name string) Span {
	if !enabled.Load() {
		return Span{}
	}
	var g, h uint64
	if poolSource != nil {
		g, h = poolSource()
	}
	var pid uint64
	if parent != nil {
		pid = parent.id
	}
	id := nextSpanID.Add(1)
	prev := ambientSpan.Swap(id)
	return Span{name: name, cat: cat, g0: g, h0: h, id: id, parent: pid, prevAmb: prev, t0: time.Now()}
}

// BeginLeaf opens a span under an explicit parent that, unlike
// BeginChild's, never becomes the ambient parent: nothing opens inside
// it. Worker goroutines that time their share of one kernel side by side
// (a convolution's per-image lowering) use it, so no span on the training
// path can attach to a worker's span through the one ambient slot.
func BeginLeaf(parent *Span, cat Cat, name string) Span {
	if !enabled.Load() {
		return Span{}
	}
	var g, h uint64
	if poolSource != nil {
		g, h = poolSource()
	}
	var pid uint64
	if parent != nil {
		pid = parent.id
	}
	// End's compare-and-swap finds some other ID in the ambient slot and
	// leaves it alone.
	return Span{name: name, cat: cat, g0: g, h0: h, id: nextSpanID.Add(1), parent: pid, t0: time.Now()}
}

// Active reports whether the span is recording, so callers can skip
// non-trivial metric computation when profiling is off.
func (s *Span) Active() bool { return !s.t0.IsZero() }

// SetFLOPs attaches the span's useful floating-point work.
func (s *Span) SetFLOPs(f float64) { s.flops = f }

// SetBytes attaches the span's bytes moved (operand + result traffic).
func (s *Span) SetBytes(n int64) { s.bytes = n }

// End closes the span and records it. A span that began while profiling
// was off, or whose capture was restarted mid-flight, is discarded.
func (s *Span) End() {
	if s.t0.IsZero() {
		return
	}
	dur := time.Since(s.t0)
	var g, h uint64
	if poolSource != nil {
		g, h = poolSource()
	}
	// Restore the ambient parent only if this span is still the innermost
	// one; a failed CAS means a concurrent Begin superseded it and that
	// span's End will restore its own predecessor.
	ambientSpan.CompareAndSwap(s.id, s.prevAmb)
	collector.mu.Lock()
	defer collector.mu.Unlock()
	start := s.t0.Sub(collector.epoch)
	if collector.epoch.IsZero() || start < 0 {
		return // capture restarted after Begin; drop the orphan
	}
	key := aggKey{name: s.name, cat: s.cat}
	a := collector.agg[key]
	if a == nil {
		a = &aggVal{}
		collector.agg[key] = a
	}
	a.count++
	a.total += dur
	a.flops += s.flops
	a.bytes += s.bytes
	a.poolGets += g - s.g0
	a.poolHits += h - s.h0
	if len(collector.recs) >= collector.maxRecs {
		collector.dropped++
		return
	}
	collector.recs = append(collector.recs, Record{
		ID:       s.id,
		Parent:   s.parent,
		Name:     s.name,
		Cat:      s.cat,
		Start:    start,
		Dur:      dur,
		FLOPs:    s.flops,
		Bytes:    s.bytes,
		PoolGets: g - s.g0,
		PoolHits: h - s.h0,
	})
}

// MemWatermark attributes peak live bytes to the paper's five memory
// categories (Figure 9). Each category holds its own maximum across
// samples; PeakTotal is the largest single-sample sum (the footprint a
// device would need).
type MemWatermark struct {
	Weights         int64  `json:"weights"`
	WeightGradients int64  `json:"weight_gradients"`
	FeatureMaps     int64  `json:"feature_maps"`
	Workspace       int64  `json:"workspace"`
	Dynamic         int64  `json:"dynamic"`
	PeakTotal       int64  `json:"peak_total"`
	Samples         uint64 `json:"samples"`
}

// SampleMemory folds one live measurement into the watermark: weights,
// weight gradients, stashed feature maps, workspace (pool/pack scratch),
// and dynamic (optimizer state) bytes. The graph step drivers call it
// once per training step at peak stash.
func SampleMemory(weights, grads, featureMaps, workspace, dynamic int64) {
	if !enabled.Load() {
		return
	}
	total := weights + grads + featureMaps + workspace + dynamic
	collector.mu.Lock()
	defer collector.mu.Unlock()
	m := &collector.mem
	m.Weights = max(m.Weights, weights)
	m.WeightGradients = max(m.WeightGradients, grads)
	m.FeatureMaps = max(m.FeatureMaps, featureMaps)
	m.Workspace = max(m.Workspace, workspace)
	m.Dynamic = max(m.Dynamic, dynamic)
	if total > collector.memTotal {
		collector.memTotal = total
		m.PeakTotal = total
	}
	m.Samples++
}
