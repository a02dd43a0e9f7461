package main

import (
	_ "embed"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"tbd/internal/data"
	"tbd/internal/dist"
	"tbd/internal/graph"
	"tbd/internal/layers"
	"tbd/internal/models"
	"tbd/internal/optim"
	"tbd/internal/serve"
	"tbd/internal/tensor"
)

// modelSeed initialises every model the benchmark builds itself. -seed
// moves inputs only, so two seeds time the same weights. (The dist
// workloads are the exception: WorkerConfig.Seed is the one seed RunWorker
// takes, and it builds the model and the batches from it.)
const modelSeed = 7

const clipNorm = 5

// serveDeadline is the latency past which a served request no longer
// counts as ok: an order of magnitude above the saturated median, so it
// marks stalls, not ordinary queueing.
const serveDeadline = 20 * time.Millisecond

// workload is one named set of inputs. run sets the workload up, warms it
// up, opens the timed window, and fills the result.
type workload struct {
	name, why string
	run       func(c *sliceCtx, r *sliceResult)
	// wallClock marks a workload whose op is link time, which real-time
	// sleeps set and the core clock does not: its times are reported as
	// read, not scaled to the reference clock (see clock.go).
	wallClock bool
}

var workloads = []*workload{
	{name: "train_gemm", why: "2.1M-param MLP at batch 256: 256x1024x1024 GEMMs in all three layouts past L2, then the optimizer pass", run: runTrainGemm},
	{name: "train_conv", why: "ResNet twin at batch 32 fed by the data pipeline: im2col, BatchNorm, residual adds, narrow GEMMs, pool churn", run: runTrainConv},
	{name: "serve_sat", why: "32 closed-loop callers saturating one fleet replica: the one workload with admission, routing, batching and handoff on the hot path", run: runServeSat},
	{name: "dist_ring", why: "2-rank ring all-reduce at 10 GbE over loopback TCP: CPU-bound compute, flatten, wire encode/decode, SGD", run: func(c *sliceCtx, r *sliceResult) {
		runDist(c, r, "dist_ring", dist.RunRing, 100, dist.Link10GbE, 0)
	}},
	// Ten steps on 16-sample shards lower the loss by about 0.1 against a
	// batch-to-batch scatter of 0.05, so about one seed in forty ends
	// above where it began by chance; the slack admits that scatter.
	{name: "dist_ps", why: "2-rank sync parameter server at 1 GbE: the same wire code link-bound, so bytes on the wire show as milliseconds", wallClock: true, run: func(c *sliceCtx, r *sliceResult) {
		runDist(c, r, "dist_ps", dist.RunPSSync, 10, dist.Link1GbE, 0.1)
	}},
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// sliceCtx is what one slice is asked to do.
type sliceCtx struct {
	seed    uint64
	window  time.Duration // length of the timed window
	tr      *tracer       // nil in the untraced run
	clk     *clock        // scales every reported time to the reference clock
	smoke   bool          // skip warm-up that checks nothing
	spawned time.Time     // when the parent started this slice's process
}

// sliceResult is what one slice measured. Slices run in their own
// process and hand this to the parent as JSON on standard output.
type sliceResult struct {
	// OpNs has one entry per timed op, per training step for dist_*, at
	// the reference clock; WallOpNs is the same as read off the wall clock.
	// Both are filled when the window closes, from the intervals in timed.
	OpNs      []int64
	WallOpNs  []int64
	timed     []interval
	Samples   int64 // samples completed inside the timed window
	TimedNs   int64
	SetupNs   int64 // process start to first timed op
	Attempted int64
	Failed    int64 // errored, or output wrong
	Late      int64 // correct but past serveDeadline
	// PrefixErr is why the correctness prefix failed ("" if it passed). A
	// failed prefix voids the slice: every op in it counts as failed.
	PrefixErr string
	// WarmLoss is the loss at the end of warm-up (train_* only); the
	// traced and untraced runs of one seed must agree on it exactly.
	WarmLoss  float32
	PeakRSSKB int64
	Layer     map[string]float64 // per-layer values this slice could measure
	Spans     []span             `json:"-"`
}

func (r *sliceResult) failPrefix(format string, args ...any) {
	if r.PrefixErr == "" {
		r.PrefixErr = fmt.Sprintf(format, args...)
	}
}

// interval is a stretch of raw time on the slice clock's axis.
type interval struct{ from, to int64 }

// addOp records a timed op that ran over [from, to).
func (r *sliceResult) addOp(from, to int64) { r.timed = append(r.timed, interval{from, to}) }

// runSlice runs one slice of kind "plain", "traced" or "probes".
func runSlice(kind string, w *workload, c *sliceCtx) *sliceResult {
	tensor.SetParallelism(1)
	c.clk = startClock(time.Now(), w.wallClock)
	defer c.clk.close()
	r := &sliceResult{Layer: map[string]float64{}}
	switch kind {
	case "probes":
		runProbes(c.clk, r.Layer)
		if w.name == "serve_sat" {
			openLoop(c, r)
		}
		return r
	case "traced":
		c.tr = &tracer{t0: c.clk.t0}
	}
	w.run(c, r)
	if c.tr != nil {
		r.Spans = appendSpans(r.Spans, c.tr.spans)
		for _, m := range spanMetrics {
			r.Layer[m.metric] = spanMsPerOp(c.clk, r.Spans, m.span)
		}
		r.Layer["graph.unattributed_share"] = unattributedShare(r.Spans)
	}
	return r
}

// spanMetrics are the per-layer metrics read off the traced run's spans.
var spanMetrics = []struct{ metric, span string }{
	{"data.next_wait_ms", "data.next"},
	{"data.batch_gen_ms", "data.batch_gen"},
	{"graph.zero_ms", "graph.zero"},
	{"graph.forward_ms", "graph.forward"},
	{"graph.loss_ms", "graph.loss"},
	{"graph.backward_ms", "graph.backward"},
	{"graph.clip_ms", "graph.clip"},
	{"graph.flatten_ms", "graph.flatten"},
	{"optim.step_ms", "optim.step"},
	{"dist.compute_ms", "dist.compute"},
	{"dist.allreduce_ms", "dist.allreduce"},
	{"dist.apply_ms", "dist.apply"},
	{"dist.ps_roundtrip_ms", "dist.ps_roundtrip"},
	{"dist.load_weights_ms", "dist.load_weights"},
}

func peakRSSKB() int64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, _ := strconv.ParseInt(f[1], 10, 64)
			return kb
		}
	}
	return 0
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// window brackets the timed part of a slice with the process counters
// that are read from outside any layer.
type window struct {
	clk   *clock
	start time.Time
	from  int64 // start on clk's axis
	// spawned is when the slice's process was started, on the same axis.
	spawned int64
	cpu     time.Duration
	mem     runtime.MemStats
	pool    tensor.PoolCounters
}

func openWindow(c *sliceCtx, r *sliceResult) *window {
	w := &window{clk: c.clk, cpu: cpuTime(), pool: tensor.PoolStatsSnapshot()}
	runtime.ReadMemStats(&w.mem)
	w.start = time.Now()
	w.from = int64(w.start.Sub(c.clk.t0))
	w.spawned = int64(c.spawned.Sub(c.clk.t0))
	return w
}

// close ends the window and brings the slice's times to the reference
// clock. A timed op counts as stepsPerOp units of work: 1, except that a
// dist op is a whole run and is reported per training step.
func (w *window) close(r *sliceResult, stepsPerOp int) {
	end := w.clk.now()
	// Read before the bookkeeping below allocates on the workload's account.
	r.PeakRSSKB = peakRSSKB()
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	cpu := cpuTime()
	r.SetupNs = int64(w.clk.scale(w.spawned, w.from))
	r.TimedNs = int64(w.clk.scale(w.from, end))
	for _, op := range r.timed {
		r.OpNs = append(r.OpNs, int64(w.clk.scale(op.from, op.to))/int64(stepsPerOp))
		r.WallOpNs = append(r.WallOpNs, (op.to-op.from)/int64(stepsPerOp))
	}
	ops := float64(max(len(r.timed)*stepsPerOp, 1))
	// CPU time is counted in wall-clock ticks; it shares the window's rate.
	r.Layer["proc.cpu_ms_per_op"] = float64(cpu-w.cpu) / 1e6 / ops * float64(r.TimedNs) / float64(end-w.from)
	r.Layer["proc.allocs_per_op"] = float64(mem.Mallocs-w.mem.Mallocs) / ops
	r.Layer["proc.alloc_kb_per_op"] = float64(mem.TotalAlloc-w.mem.TotalAlloc) / 1024 / ops
	r.Layer["proc.gc_cycles"] = float64(mem.NumGC - w.mem.NumGC)
	pool := tensor.PoolStatsSnapshot().Sub(w.pool)
	r.Layer["tensor.pool_hit_share"] = share(pool.Hits, pool.Gets)
	r.Layer["tensor.pack_hit_share"] = share(pool.PackHits, pool.PackGets)
	tb, pb := tensor.PoolRetainedBytes()
	r.Layer["tensor.pool_retained_mb"] = float64(tb+pb) / (1 << 20)
}

func share(part, whole uint64) float64 {
	if whole == 0 {
		return 0
	}
	return float64(part) / float64(whole)
}

// ---- train_gemm, train_conv ----

//go:embed golden.json
var goldenJSON []byte

// goldenLoss is golden.json: per workload, the seed-1 loss it must reach.
var goldenLoss = func() map[string]float64 {
	var g struct {
		Loss map[string]float64 `json:"loss"`
	}
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		panic("bench: golden.json: " + err.Error())
	}
	return g.Loss
}()

// matchesGolden reports whether a seed-1 loss is the one golden.json has
// for the workload. The tolerance is what lets GEMM tiers, which round
// differently, agree; any other seed has no golden value and passes.
func matchesGolden(c *sliceCtx, workload string, loss float32) bool {
	want := goldenLoss[workload]
	return c.seed != 1 || math.Abs(float64(loss)-want) <= 1e-3*want
}

func runTrainGemm(c *sliceCtx, r *sliceResult) {
	const batch, in, classes, poolSize = 256, 1024, 10, 64
	net := models.NumericServeMLP(tensor.NewRNG(modelSeed), in, 1024, classes)
	opt := optim.NewMomentum(0.01, 0.9)
	rng := tensor.NewRNG(c.seed)
	xs := make([]*tensor.Tensor, poolSize)
	ys := make([][]int, poolSize)
	for i := range xs {
		xs[i], ys[i] = dist.SyntheticBatch(rng, []int{in}, classes, batch)
	}
	i := 0
	trainLoop(c, r, "train_gemm", net, opt, 10, batch, func(int) (*tensor.Tensor, []int) {
		i++
		return xs[i%poolSize], ys[i%poolSize]
	})
}

func runTrainConv(c *sliceCtx, r *sliceResult) {
	const batch, classes = 32, 10
	net := models.NumericResNet(tensor.NewRNG(modelSeed), 3, 16, classes)
	opt := optim.NewAdam(0.01)
	source := func(seed uint64) *data.ImageSource {
		return data.NewImageSource(tensor.NewRNG(seed), 3, 16, 16, classes, 0.3)
	}
	pipe := data.NewImagePipeline(1, 2, batch, func(int) *data.ImageSource { return source(c.seed) })
	defer pipe.Close()
	trainLoop(c, r, "train_conv", net, opt, 50, batch, func(root int) (*tensor.Tensor, []int) {
		if c.tr == nil {
			b := pipe.Next()
			return b.X, b.Labels
		}
		s := c.tr.begin("data.next", root)
		b := pipe.Next()
		c.tr.end(s)
		return b.X, b.Labels
	})
	if c.tr != nil {
		// What the pipeline's worker pays per batch, which Next only
		// shows when the trainer outruns it.
		src := source(c.seed + 1)
		for i := 0; i < 20; i++ {
			s := c.tr.root("data.batch_gen", -1-i)
			src.Batch(batch)
			c.tr.end(s)
		}
	}
}

// trainLoop warms a classifier up for warm steps, checks the warm-up
// trajectory, then times one step per op until the window closes. next
// yields the step's batch; in the traced run it gets the step's root span.
func trainLoop(c *sliceCtx, r *sliceResult, name string, net *graph.Network, opt optim.Optimizer, warm, batch int, next func(root int) (*tensor.Tensor, []int)) {
	step := func(op int) float32 {
		if c.tr == nil {
			x, labels := next(-1)
			return graph.TrainClassifierStep(net, opt, x, labels, clipNorm).Loss
		}
		root := c.tr.root("step", op)
		x, labels := next(root)
		loss := tracedStep(c.tr, root, net, opt, x, labels)
		c.tr.end(root)
		return loss
	}
	var first float32
	for i := 0; i < warm; i++ {
		r.WarmLoss = step(0)
		if i == 0 {
			first = r.WarmLoss
		}
	}
	if bad(r.WarmLoss) || r.WarmLoss >= first {
		r.failPrefix("%s: loss %v after warm-up, %v at the first step", name, r.WarmLoss, first)
	}
	if !matchesGolden(c, name, r.WarmLoss) {
		r.failPrefix("%s: loss %v after warm-up is not golden.json's", name, r.WarmLoss)
	}
	if c.tr != nil {
		c.tr.spans = c.tr.spans[:0] // warm-up spans would skew the medians
	}
	r.Layer["optim.params"] = float64(net.ParamCount())

	w := openWindow(c, r)
	for op := 0; time.Since(w.start) < c.window; op++ {
		from := c.clk.now()
		loss := step(op)
		r.addOp(from, c.clk.now())
		r.Attempted++
		r.Samples += int64(batch)
		if bad(loss) {
			r.Failed++
		}
	}
	w.close(r, 1)
}

func bad(loss float32) bool {
	return math.IsNaN(float64(loss)) || math.IsInf(float64(loss), 0)
}

// tracedStep is graph.TrainClassifierStep spelled out as the public calls
// it makes, with a span around each, so the step is timed layer by layer
// from outside and still follows the same trajectory.
func tracedStep(tr *tracer, root int, net *graph.Network, opt optim.Optimizer, x *tensor.Tensor, labels []int) float32 {
	params := net.Params()
	loss, logits := tracedGrads(tr, root, net, x, labels)
	s := tr.begin("graph.clip", root)
	optim.ClipGradNorm(params, clipNorm)
	tr.end(s)
	s = tr.begin("optim.step", root)
	opt.Step(params)
	tr.end(s)
	tensor.Accuracy(logits, labels) // part of the step, not of any layer row
	return loss
}

// tracedGrads runs zero, forward, loss and backward under parent. The root
// Sequential's children are called one by one, which is all that
// Sequential.Forward and Backward do, so each gets its own span.
func tracedGrads(tr *tracer, parent int, net *graph.Network, x *tensor.Tensor, labels []int) (float32, *tensor.Tensor) {
	children := net.Root.(*layers.Sequential).Layers
	s := tr.begin("graph.zero", parent)
	optim.ZeroGrads(net.Params())
	tr.end(s)

	fw := tr.begin("graph.forward", parent)
	logits := x
	for _, l := range children {
		s = tr.begin("layers."+l.Name()+".fwd", fw)
		logits = l.Forward(logits, true)
		tr.end(s)
	}
	tr.end(fw)

	s = tr.begin("graph.loss", parent)
	loss, grad := tensor.CrossEntropy(logits, labels)
	tr.end(s)

	bw := tr.begin("graph.backward", parent)
	g := grad
	for i := len(children) - 1; i >= 0; i-- {
		s = tr.begin("layers."+children[i].Name()+".bwd", bw)
		g = children[i].Backward(g)
		tr.end(s)
	}
	tr.end(bw)
	grad.Release()
	return loss, logits
}

// ---- serve_sat ----

// servedModel is the fleet under test plus what is needed to check it: the
// request samples and what a direct InferBatch says each should return.
type servedModel struct {
	fleet   *serve.Fleet
	direct  *serve.Session
	samples []*tensor.Tensor
	want    [][]float32
}

func newServeSession() (*serve.Session, error) {
	net, shape, err := models.ServeTwin("mlp", tensor.NewRNG(modelSeed))
	if err != nil {
		return nil, err
	}
	return serve.NewSession(net, shape...), nil
}

func newServedModel(seed uint64) (*servedModel, error) {
	const nSamples = 64
	fleet, err := serve.NewFleet(newServeSession, serve.FleetConfig{
		Replicas: 1, MaxBatch: 32, MaxWait: 500 * time.Microsecond, QueueDepth: 128,
	})
	if err != nil {
		return nil, err
	}
	m := &servedModel{fleet: fleet}
	if m.direct, err = newServeSession(); err != nil {
		fleet.Close()
		return nil, err
	}
	n := m.direct.SampleLen()
	x := tensor.RandNormal(tensor.NewRNG(seed), 0, 1, nSamples, n)
	out := m.direct.InferBatch(x)
	classes := out.Numel() / nSamples
	for i := 0; i < nSamples; i++ {
		m.samples = append(m.samples, tensor.FromSlice(x.Data()[i*n:(i+1)*n], n))
		m.want = append(m.want, append([]float32(nil), out.Data()[i*classes:(i+1)*classes]...))
	}
	return m, nil
}

// matches reports whether the fleet's answer for sample i agrees with the
// direct forward. GEMM tiers may round differently at different batch
// sizes, hence a tolerance and not equality.
func (m *servedModel) matches(i int, got []float32) bool {
	if len(got) != len(m.want[i]) {
		return false
	}
	for j, v := range got {
		if d := math.Abs(float64(v - m.want[i][j])); d > 1e-3 || math.IsNaN(d) {
			return false
		}
	}
	return true
}

// servedReq is one completed request of the timed window: when it ran on
// the slice clock's axis, and what the fleet said about it. It is packed
// into 16 bytes because 160 000 of them are live inside the window, and
// whatever the harness holds there the collector lets the heap grow by
// again: that is memory charged to serve_sat's peak_rss_mb.
type servedReq struct {
	fromUs     uint32 // microseconds on the slice clock's axis
	durNs      uint32
	residentNs uint32 // Result.Latency
	batch      uint8  // Result.BatchSize
}

func (q servedReq) interval() (from, to int64) {
	from = int64(q.fromUs) * 1000
	return from, from + int64(q.durNs)
}

// serveCaller is one closed-loop client's tally.
type serveCaller struct {
	reqs       []servedReq
	attempted  int64
	failed     int64 // shed, errored, or wrong output
	late, shed int64
}

func runServeSat(c *sliceCtx, r *sliceResult) {
	const callers, warmPerCaller = 32, 63 // 2016 warm-up requests, all checked
	m, err := newServedModel(c.seed)
	if err != nil {
		r.failPrefix("serve_sat: %v", err)
		return
	}
	defer m.fleet.Close()

	// request sends caller id's k-th request and tallies it. Every request
	// is checked during warm-up, one in a hundred after.
	request := func(cl *serveCaller, id, k int, timed bool) {
		i := (id*7 + k) % len(m.samples)
		from := c.clk.now()
		res, err := m.fleet.Predict(m.samples[i])
		to := c.clk.now()
		cl.attempted++
		switch {
		case errors.Is(err, serve.ErrOverloaded) || errors.Is(err, serve.ErrDeadline):
			cl.shed++
			cl.failed++
		case err != nil:
			cl.failed++
		case (!timed || k%100 == 0) && !m.matches(i, res.Output):
			cl.failed++
		case time.Duration(to-from) > serveDeadline:
			cl.late++
		}
		if timed && err == nil {
			cl.reqs = append(cl.reqs, servedReq{uint32(from / 1000), uint32(to - from), uint32(res.Latency), uint8(res.BatchSize)})
		}
	}

	cls := make([]*serveCaller, callers)
	var warm, done sync.WaitGroup
	var began time.Time
	start := make(chan struct{})
	for id := range cls {
		cl := &serveCaller{}
		cls[id] = cl
		warm.Add(1)
		done.Add(1)
		go func(id int) {
			defer done.Done()
			for k := 0; k < warmPerCaller; k++ {
				request(cl, id, k, false)
			}
			warm.Done()
			<-start
			for k := 0; time.Since(began) < c.window; k++ {
				request(cl, id, k, true)
			}
		}(id)
	}
	warm.Wait()
	for _, cl := range cls {
		if cl.failed > 0 {
			r.failPrefix("serve_sat: %d of %d warm-up requests shed, failed or answered wrongly", cl.failed, warmPerCaller)
		}
		*cl = serveCaller{}
	}
	w := openWindow(c, r)
	began = w.start
	close(start)
	done.Wait()

	var shed int64
	most := 0
	for _, cl := range cls {
		shed += cl.shed
		r.Failed += cl.failed
		r.Late += cl.late
		r.Attempted += cl.attempted
		most = max(most, len(cl.reqs))
	}
	// Every caller's k-th request, then every caller's next: close enough
	// to the order they ran in for the drift row to compare early with late.
	var reqs []servedReq
	var batches float64
	for k := 0; k < most; k++ {
		for id, cl := range cls {
			if k >= len(cl.reqs) {
				continue
			}
			q := cl.reqs[k]
			reqs = append(reqs, q)
			from, to := q.interval()
			r.addOp(from, to)
			batches += 1 / float64(q.batch)
			if c.tr != nil {
				// Where inside the call the resident time sat is not
				// visible from outside; it is drawn flush with the
				// return, so the root's self time is the call overhead.
				op := id + k*callers
				c.tr.spans = append(c.tr.spans,
					span{"serve.predict", from, to, -1, op},
					span{"serve.resident", to - int64(q.residentNs), to, len(c.tr.spans), op})
			}
		}
	}
	r.Samples = int64(len(reqs))
	w.close(r, 1)
	// The fleet reads its own resident time off the wall clock; bring it
	// to the reference clock at the rate the whole request ran at.
	resident := make([]float64, len(reqs))
	overhead := make([]float64, len(reqs))
	for i, q := range reqs {
		rate := float64(r.OpNs[i]) / float64(r.WallOpNs[i])
		resident[i] = float64(q.residentNs) * rate / 1e6
		overhead[i] = (float64(q.durNs) - float64(q.residentNs)) * rate / 1e3
	}
	r.Layer["serve.occupancy_mean"] = float64(len(reqs)) / max(batches, 1e-9)
	r.Layer["serve.resident_ms"] = median(resident)
	r.Layer["serve.call_overhead_us"] = median(overhead)
	r.Layer["serve.shed_share"] = float64(shed) / float64(max(r.Attempted, 1))
}

// openLoop offers the fleet a seeded Poisson stream at 2000 requests per
// second, a rate well under capacity, and times each request from when it
// was due: the serve layer used for latency, where serve_sat uses it for
// capacity. Its numbers are per-layer only; MaxWait and host timers set
// them, and no change to the code moves those.
func openLoop(c *sliceCtx, r *sliceResult) {
	const rate = 2000
	m, err := newServedModel(c.seed)
	if err != nil {
		r.failPrefix("serve_sat open loop: %v", err)
		return
	}
	defer m.fleet.Close()
	sched := poissonSchedule(tensor.NewRNG(c.seed+1), rate, c.window)
	lat := make([]float64, len(sched))
	lateness := make([]float64, len(sched))
	shed := make([]bool, len(sched))
	var wg sync.WaitGroup
	start := time.Now()
	for k, at := range sched {
		due := start.Add(at)
		time.Sleep(time.Until(due))
		lateness[k] = float64(time.Since(due)) / 1e6
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			_, err := m.fleet.Predict(m.samples[k%len(m.samples)])
			lat[k] = float64(time.Since(due)) / 1e6
			shed[k] = err != nil
		}(k)
	}
	wg.Wait()
	var nShed int
	for _, s := range shed {
		if s {
			nShed++
		}
	}
	lat, lateness = sortedCopy(lat), sortedCopy(lateness)
	r.Layer["serve.open_lat_ms_p50"] = quantile(lat, 0.5)
	_, r.Layer["serve.open_lat_ms_tail"] = topPercentile(lat)
	_, r.Layer["serve.open_gen_late_ms"] = topPercentile(lateness)
	r.Layer["serve.open_shed_share"] = float64(nShed) / float64(max(len(sched), 1))
}

// ---- dist_ring, dist_ps ----

const (
	distModel   = "mlp-wide"
	distWorkers = 2
	distBatch   = 32
	distLR      = 0.05
)

// runDist times whole coordinated runs: a Coordinator and two RunWorker
// goroutines over loopback TCP, the path `tbd dist` gives OS processes.
// One op is one run; its time is reported per training step. The traced
// slice cannot see inside RunWorker, so it times a loop of its own
// (distTracedLoop) built from the same public pieces.
// A run is correct when the ranks end on identical weights, the mean loss
// of their last step is below that of their first plus lossSlack, and, for
// seed 1, rank 0's last loss is the one in golden.json.
func runDist(c *sliceCtx, r *sliceResult, name string, strategy dist.RunStrategy, steps int, link float64, lossSlack float32) {
	if c.tr != nil {
		distTracedLoop(c, r, strategy, link)
		return
	}
	var slowest []float64 // per timed run: the slower rank's own WallSec
	var comm, wall float64
	run := func() bool {
		from := c.clk.now()
		sum, err := distRun(c.seed, strategy, steps, link)
		to := c.clk.now()
		if err != nil || !sum.Identical {
			return false
		}
		var slow float64
		var first, last float32
		for _, res := range sum.Results {
			first += res.FirstLoss / distWorkers
			last += res.LastLoss / distWorkers
			comm += res.CommSec
			wall += res.WallSec
			slow = max(slow, res.WallSec)
		}
		if !(last < first+lossSlack) || !matchesGolden(c, name, sum.Results[0].LastLoss) {
			return false
		}
		r.addOp(from, to)
		slowest = append(slowest, slow)
		r.Layer["dist.wire_bytes_per_step"] = float64(sum.WireBytes) / float64(steps)
		return true
	}
	if !c.smoke && !run() {
		r.failPrefix("%s: warm-up run failed", name)
	}
	r.timed, slowest, comm, wall = nil, nil, 0, 0

	w := openWindow(c, r)
	for time.Since(w.start) < c.window {
		r.Attempted++
		if run() {
			r.Samples += int64(steps * distBatch)
		} else {
			r.Failed++
		}
	}
	w.close(r, steps)
	// What a run costs outside its ranks' training loops. WallSec is the
	// rank's own wall-clock reading and shares the run's rate.
	fixedMs := make([]float64, len(slowest))
	for i, slow := range slowest {
		run := float64(r.WallOpNs[i]) * float64(steps)
		fixedMs[i] = (run - slow*1e9) * float64(r.OpNs[i]) / float64(r.WallOpNs[i]) / 1e6
	}

	m, _ := dist.RunModelByName(distModel)
	// Raw fp32: every rank sends its gradients and receives the result.
	raw := float64(distWorkers * 2 * 4 * m.Build(modelSeed).GradElems())
	r.Layer["dist.wire_inflation"] = r.Layer["dist.wire_bytes_per_step"] / raw
	r.Layer["dist.comm_share"] = comm / max(wall, 1e-9)
	r.Layer["dist.run_fixed_ms"] = median(fixedMs)
	r.Layer["dist.ranks_identical"] = float64(1 - min(r.Failed, 1))
}

func distRun(seed uint64, strategy dist.RunStrategy, steps int, link float64) (*dist.RunSummary, error) {
	coord, err := dist.NewCoordinator(dist.CoordConfig{
		Workers: distWorkers, Strategy: strategy, Compression: dist.CompressNone,
		Model: distModel, Seed: seed, LR: distLR, PSBytesPerSec: link,
	})
	if err != nil {
		return nil, err
	}
	var wg sync.WaitGroup
	errs := make([]error, distWorkers)
	for rank := 0; rank < distWorkers; rank++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			_, errs[rank] = dist.RunWorker(dist.WorkerConfig{
				Rank: rank, Workers: distWorkers, Strategy: strategy, Compression: dist.CompressNone,
				BytesPerSec: link, Model: distModel, Seed: seed, Steps: steps,
				GlobalBatch: distBatch, LR: distLR,
				CoordAddr: coord.Addr(), PSAddr: coord.PSAddr(),
			})
		}(rank)
	}
	sum, err := coord.Wait() // closes the coordinator
	wg.Wait()
	return sum, errors.Join(append(errs, err)...)
}

// distRank is one rank of the harness-owned loop.
type distRank struct {
	tr    *tracer
	net   *graph.Network
	opt   optim.Optimizer
	rng   *tensor.RNG
	ring  *dist.Ring
	ps    *dist.PSClient
	flat  []float32
	steps []interval
	err   error
}

// distTracedLoop trains two ranks the way dist's trainWorker does, one
// span per public call. An op is one step of rank 0. The ranks meet at
// every exchange, so they run chunks of a fixed step count and the clock
// is read only between chunks.
func distTracedLoop(c *sliceCtx, r *sliceResult, strategy dist.RunStrategy, link float64) {
	m, err := dist.RunModelByName(distModel)
	if err != nil {
		r.failPrefix("%v", err)
		return
	}
	ranks := make([]*distRank, distWorkers)
	for i := range ranks {
		ranks[i] = &distRank{tr: &tracer{t0: c.tr.t0}, net: m.Build(c.seed), opt: optim.NewSGD(distLR), rng: tensor.NewRNG(c.seed + 1000)}
	}
	chunk := 5
	if strategy == dist.RunRing {
		chunk = 50
		rings, err := dist.NewLocalRings(distWorkers, dist.CompressNone, link)
		if err != nil {
			r.failPrefix("%v", err)
			return
		}
		for i, ring := range rings {
			ranks[i].ring = ring
			defer ring.Close()
		}
	} else {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			r.failPrefix("%v", err)
			return
		}
		_, params, _ := dist.BuildMasterParams(distModel, c.seed)
		srv := dist.ServePS(l, params, optim.NewSGD(distLR), distWorkers)
		srv.ThrottleLink(link)
		defer srv.Close()
		for _, rk := range ranks {
			if rk.ps, err = dist.DialPSThrottled(srv.Addr(), link); err != nil {
				r.failPrefix("%v", err)
				return
			}
			defer rk.ps.Close()
		}
	}
	runChunk := func(first int) {
		var wg sync.WaitGroup
		for rank, rk := range ranks {
			wg.Add(1)
			go func(rank int, rk *distRank) {
				defer wg.Done()
				for s := first; s < first+chunk && rk.err == nil; s++ {
					from := c.clk.now()
					rk.err = rk.step(rank, s, m)
					rk.steps = append(rk.steps, interval{from, c.clk.now()})
				}
			}(rank, rk)
		}
		wg.Wait()
	}
	runChunk(0) // warm-up
	for _, rk := range ranks {
		rk.tr.spans, rk.steps = nil, nil
	}
	w := openWindow(c, r)
	for s := chunk; time.Since(w.start) < c.window && ranks[0].err == nil && ranks[1].err == nil; s += chunk {
		runChunk(s)
	}
	r.timed = ranks[0].steps
	r.Attempted = int64(len(r.timed))
	r.Samples = r.Attempted * distBatch
	w.close(r, 1)
	same := ranks[0].net.WeightsHash() == ranks[1].net.WeightsHash()
	for _, rk := range ranks {
		r.Spans = appendSpans(r.Spans, rk.tr.spans)
		if rk.err != nil || !same {
			r.Failed = r.Attempted
		}
	}
}

// step is one training step of one rank.
func (rk *distRank) step(rank, s int, m dist.RunModel) error {
	tr := rk.tr
	root := tr.root("step", s*distWorkers+rank)
	defer tr.end(root)
	sp := tr.begin("data.batch_gen", root)
	x, labels := dist.SyntheticBatch(rk.rng, m.Shape, m.Classes, distBatch)
	xs, ys := dist.SplitBatch(x, labels, distWorkers)
	tr.end(sp)
	sp = tr.begin("dist.compute", root)
	tracedGrads(tr, sp, rk.net, xs[rank], ys[rank])
	tr.end(sp)
	params := rk.net.Params()
	if rk.ring == nil {
		sp = tr.begin("dist.ps_roundtrip", root)
		weights, _, err := rk.ps.PushRanked(rank, dist.CompressNone, dist.GradSlices(params))
		tr.end(sp)
		if err != nil {
			return err
		}
		sp = tr.begin("dist.load_weights", root)
		defer tr.end(sp)
		return dist.LoadWeights(params, weights)
	}
	sp = tr.begin("graph.flatten", root)
	rk.flat = rk.net.GradVector(rk.flat)
	tr.end(sp)
	sp = tr.begin("dist.allreduce", root)
	err := rk.ring.AllReduce(rk.flat)
	tr.end(sp)
	if err != nil {
		return err
	}
	apply := tr.begin("dist.apply", root)
	sp = tr.begin("graph.flatten", apply)
	rk.net.SetGradVector(rk.flat)
	tr.end(sp)
	sp = tr.begin("optim.step", apply)
	rk.opt.Step(params)
	tr.end(sp)
	tr.end(apply)
	return nil
}
