// Package dist is the data-parallel training runtime (§2.2, §4.5), sockets
// and processes only. One RunWorker call is one rank — an OS process
// spawned by `tbd dist`, or a goroutine under RunLocal — and either way the
// gradients move over real TCP: a ring all-reduce (ring.go) or a
// synchronous / bounded-staleness parameter server (psnet.go), both on
// wire.go's frames and optionally throttled (throttle.go). Ranks meet
// through a control protocol (hello -> peers -> done -> all-done ->
// result) on psnet.go's frame header, owned by the Coordinator in
// coord.go. The simulated cluster model of Figure 10 lives in
// internal/sim.
package dist

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"runtime"
	"strings"
	"sync"
	"time"

	"tbd/internal/graph"
	"tbd/internal/layers"
	"tbd/internal/metrics"
	"tbd/internal/models"
	"tbd/internal/optim"
	"tbd/internal/prof"
	"tbd/internal/tensor"
)

// RunStrategy selects the gradient-exchange runtime.
type RunStrategy int

// Runtime strategies.
const (
	// RunPSSync is the synchronous parameter server: ranked pushes, one
	// round per step, deterministic rank-order reduction.
	RunPSSync RunStrategy = iota
	// RunPSAsync is the bounded-staleness asynchronous parameter server
	// (SSP): pushes apply immediately; a worker blocks only when it runs
	// more than the staleness bound ahead of the slowest peer.
	RunPSAsync
	// RunRing is the peer-to-peer ring all-reduce: no central server,
	// each rank exchanges gradient chunks with its neighbors.
	RunRing
)

// String implements fmt.Stringer (flag values and benchmark labels).
func (s RunStrategy) String() string {
	switch s {
	case RunPSSync:
		return "ps-sync"
	case RunPSAsync:
		return "ps-async"
	case RunRing:
		return "ring"
	}
	return fmt.Sprintf("RunStrategy(%d)", int(s))
}

// ParseRunStrategy maps a flag string to a RunStrategy.
func ParseRunStrategy(s string) (RunStrategy, error) {
	switch s {
	case "ps-sync", "ps":
		return RunPSSync, nil
	case "ps-async", "async":
		return RunPSAsync, nil
	case "ring":
		return RunRing, nil
	}
	return RunPSSync, fmt.Errorf("dist: unknown strategy %q (have ps-sync, ps-async, ring)", s)
}

// RunModel describes one trainable registry entry for `tbd dist`.
type RunModel struct {
	Name string
	// Shape is one sample's input shape (without the batch dimension).
	Shape   []int
	Classes int
	Build   func(seed uint64) *graph.Network
}

// RunModels lists the models the distributed runtime can train, all
// built from internal/models constructors.
func RunModels() []RunModel {
	return []RunModel{
		{
			Name: "mlp", Shape: []int{16}, Classes: 4,
			Build: func(seed uint64) *graph.Network {
				return models.NumericServeMLP(tensor.NewRNG(seed), 16, 32, 4)
			},
		},
		{
			// The bandwidth-sensitive config: ~400k parameters = 1.6 MB
			// of fp32 gradients per round, enough for throttled links to
			// dominate the step time.
			Name: "mlp-wide", Shape: []int{256}, Classes: 10,
			Build: func(seed uint64) *graph.Network {
				return models.NumericServeMLP(tensor.NewRNG(seed), 256, 512, 10)
			},
		},
		{
			Name: "cnn", Shape: []int{3, 8, 8}, Classes: 8,
			Build: func(seed uint64) *graph.Network {
				return models.NumericResNet(tensor.NewRNG(seed), 3, 8, 8)
			},
		},
	}
}

// RunModelByName resolves a registry entry.
func RunModelByName(name string) (RunModel, error) {
	for _, m := range RunModels() {
		if m.Name == name {
			return m, nil
		}
	}
	return RunModel{}, fmt.Errorf("dist: unknown model %q (have mlp, mlp-wide, cnn)", name)
}

// WorkerConfig is everything one rank needs to join a run.
type WorkerConfig struct {
	Rank    int
	Workers int

	Strategy    RunStrategy
	Compression Compression
	// BytesPerSec throttles this worker's link (0 = unthrottled).
	BytesPerSec float64
	// Staleness is the SSP bound for ps-async (ignored otherwise).
	Staleness int

	Model       string
	Seed        uint64
	Steps       int
	GlobalBatch int
	LR          float32

	// Profile captures a full-fidelity what-if trace of this rank's
	// training loop (phase spans, kernel spans, comm spans with their
	// dependence edges) into WorkerResult.Trace. Only one rank per
	// process may profile — the collector is process-global — so the
	// in-process benchmark harnesses leave it off and the `tbd dist`
	// re-exec path (one OS process per rank) turns it on.
	Profile bool

	// CoordAddr is the coordinator's control address; PSAddr the
	// parameter server (ps strategies only).
	CoordAddr string
	PSAddr    string
}

// WorkerResult is what each rank reports back to the coordinator.
type WorkerResult struct {
	Rank  int
	Steps int
	// Hash fingerprints the final weights (FNV-1a over the bit patterns);
	// the coordinator verifies all ranks match.
	Hash                uint64
	FirstLoss, LastLoss float32
	WallSec             float64
	// CommSec is time blocked on gradient exchange (all-reduce or
	// push/pull round trips).
	CommSec         float64
	WireIn, WireOut int64
	Window          metrics.Window
	// Trace is this rank's dependence-graph capture (nil unless the run
	// profiled). It rides the result frame as the bytes prof.Trace.Write
	// makes, so the coordinator reads it with the one trace reader and can
	// merge every rank into one cluster trace.
	Trace *prof.Trace
}

// The control protocol: hello -> peers -> done -> all-done -> result, one
// frame each on psnet.go's header, every frame carrying its connection's
// rank (the coordinator learns it from the hello). A receive checks the
// kind the protocol expects next, the rank and the kind's payload bound
// before it reads a payload byte. Training takes as long as it takes, so
// the waits for done and all-done are bounded by silence, not a stopwatch:
// a rank sends a heartbeat every heartbeatEvery while it trains, the
// coordinator sends one as often to each rank that has said done, and
// those two receives skip heartbeats and fail after heartbeatMisses
// periods with no frame.

// ctrlTimeout bounds every other control-protocol read, and every write.
const ctrlTimeout = 120 * time.Second

const (
	heartbeatEvery  = 2 * time.Second
	heartbeatMisses = 10
)

// beat is the heartbeat period, heartbeatEvery outside tests.
var beat = heartbeatEvery

// ctrlMaxAddr bounds a hello's ring address.
const ctrlMaxAddr = 255

// ctrlNames names the control kinds in errors.
var ctrlNames = map[byte]string{kindHello: "hello", kindPeers: "peers", kindDone: "done", kindAllDone: "all-done", kindResult: "result", kindHeartbeat: "heartbeat"}

// ctrlBound is the largest payload a control frame of kind may carry in
// a run of workers ranks.
func ctrlBound(kind byte, workers int) (int64, error) {
	switch kind {
	case kindHello:
		return ctrlMaxAddr, nil
	case kindPeers:
		return int64(workers) * (ctrlMaxAddr + 1), nil
	case kindDone, kindAllDone, kindHeartbeat:
		return 0, nil
	case kindResult:
		return resultFixedLen + prof.MaxTraceBytes, nil
	}
	return 0, fmt.Errorf("%w %d", errUnknownKind, kind)
}

// resultFields points at a result's fixed-width fields in wire order,
// its ints through ints; the rank rides the header and the trace follows.
// One list serves the encoder and the decoder.
func resultFields(r *WorkerResult, ints *[3]int64) []any {
	return []any{&ints[0], &r.Hash, &r.FirstLoss, &r.LastLoss, &r.WallSec, &r.CommSec,
		&r.WireIn, &r.WireOut, &ints[1], &ints[2], &r.Window.MeanSec, &r.Window.StdSec, &r.Window.Throughput}
}

// resultFixedLen is the fixed part's length: eleven 8-byte fields and two
// float32 losses.
const resultFixedLen = 11*8 + 2*4

// resultPayload encodes res as a result frame's payload.
func resultPayload(res *WorkerResult) ([]byte, error) {
	var b bytes.Buffer
	ints := [3]int64{int64(res.Steps), int64(res.Window.Start), int64(res.Window.Count)}
	for _, f := range resultFields(res, &ints) {
		if err := binary.Write(&b, binary.LittleEndian, f); err != nil {
			return nil, err
		}
	}
	if res.Trace != nil {
		if err := res.Trace.Write(&b); err != nil {
			return nil, err
		}
	}
	return b.Bytes(), nil
}

// readResult decodes rank's result frame payload p, its trace through
// prof.ReadTrace.
func readResult(rank int, p []byte) (WorkerResult, error) {
	res, ints, r := WorkerResult{Rank: rank}, [3]int64{}, bytes.NewReader(p)
	for _, f := range resultFields(&res, &ints) {
		if binary.Read(r, binary.LittleEndian, f) != nil {
			return res, fmt.Errorf("%w: a result of %d bytes, its fixed part is %d", errBadLength, len(p), resultFixedLen)
		}
	}
	res.Steps, res.Window.Start, res.Window.Count = int(ints[0]), int(ints[1]), int(ints[2])
	var err error
	if r.Len() > 0 {
		res.Trace, err = prof.ReadTrace(r)
		if err == nil && (len(res.Trace.Ranks) != 1 || res.Trace.Ranks[0].Rank != rank) {
			err = fmt.Errorf("%w: its trace is not one capture of rank %d", errWrongRank, rank)
		}
	}
	return res, err
}

// ctrlConn is one end of a rank's control connection, the same on the
// coordinator and the worker.
type ctrlConn struct {
	conn    net.Conn
	rank    int // the connection's; -1 on the coordinator before the hello
	workers int
	// who names this end in errors: "rank 2", "coordinator (rank 2)".
	who string
}

func (c *ctrlConn) send(kind byte, payload []byte) error {
	if err := c.conn.SetWriteDeadline(time.Now().Add(ctrlTimeout)); err != nil {
		return err
	}
	frame := make([]byte, psHeaderLen, psHeaderLen+len(payload))
	putHeader(frame, kind, c.rank, 0, len(payload))
	_, err := c.conn.Write(append(frame, payload...))
	return err
}

// recv reads the next frame, which must be of kind want, and returns its
// header and payload. The payload buffer grows with the bytes that arrive,
// not with the length the header claims. Waiting for done or all-done, it
// skips the peer's heartbeats.
func (c *ctrlConn) recv(want byte) (psHeader, []byte, error) {
	live, wait := want == kindDone || want == kindAllDone, ctrlTimeout
	if live {
		wait = heartbeatMisses * beat
	}
	var h psHeader
	var p []byte
	var err error
	for {
		if err = c.conn.SetReadDeadline(time.Now().Add(wait)); err != nil {
			return psHeader{}, nil, err
		}
		h, err = readHeader(c.conn)
		if err != nil || !live || h.kind != kindHeartbeat || h.length != 0 || h.rank != c.rank {
			break
		}
	}
	if err == nil {
		var bound int64
		switch bound, err = ctrlBound(h.kind, c.workers); {
		case err != nil:
		case h.length > bound:
			err = fmt.Errorf("%w: %d payload bytes, at most %d", errBadLength, h.length, bound)
		case c.rank >= 0 && h.rank != c.rank:
			err = fmt.Errorf("%w: rank %d's frame on rank %d's connection", errWrongRank, h.rank, c.rank)
		case h.kind != want:
			err = fmt.Errorf("%w: got %s", errOutOfSequence, ctrlNames[h.kind])
		default:
			if p, err = io.ReadAll(io.LimitReader(c.conn, h.length)); err == nil && int64(len(p)) < h.length {
				err = io.ErrUnexpectedEOF
			}
		}
	}
	if err != nil {
		return psHeader{}, nil, fmt.Errorf("dist: %s await %s: %w", c.who, ctrlNames[want], err)
	}
	return h, p, nil
}

// heartbeats sends a heartbeat every beat until the returned stop is first
// called. stop returns once the sender has quit, so the connection's next
// send has it to itself. A failed send ends the heartbeats; the peer then
// names this end by its silence.
func (c *ctrlConn) heartbeats() (stop func()) {
	quit, quitted := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(quitted)
		tick := time.NewTicker(beat)
		defer tick.Stop()
		for {
			select {
			case <-quit:
				return
			case <-tick.C:
				if c.send(kindHeartbeat, nil) != nil {
					return
				}
			}
		}
	}()
	var once sync.Once
	return func() {
		once.Do(func() { close(quit) })
		<-quitted
	}
}

// CheckBatch refuses a global batch the ranks cannot share: it must be
// positive and split evenly across the workers. RunWorker, RunLocal and
// `tbd dist` call it before any listener or process starts, since a rank
// that exits before its hello leaves the coordinator waiting.
func CheckBatch(globalBatch, workers int) error {
	if workers <= 0 {
		return fmt.Errorf("dist: need at least 1 worker, got %d", workers)
	}
	if globalBatch <= 0 || globalBatch%workers != 0 {
		return fmt.Errorf("dist: global batch %d must be positive and divisible by %d workers", globalBatch, workers)
	}
	return nil
}

// RunWorker joins the run described by cfg, trains for cfg.Steps, and
// returns this rank's result after the coordinator confirms every rank
// finished. The final model state is identical across ranks (the
// coordinator re-verifies via the reported hashes).
func RunWorker(cfg WorkerConfig) (WorkerResult, error) {
	model, err := RunModelByName(cfg.Model)
	if err != nil {
		return WorkerResult{}, err
	}
	if cfg.Workers <= 0 || cfg.Rank < 0 || cfg.Rank >= cfg.Workers {
		return WorkerResult{}, fmt.Errorf("dist: invalid worker position rank %d of %d", cfg.Rank, cfg.Workers)
	}
	if err := CheckBatch(cfg.GlobalBatch, cfg.Workers); err != nil {
		return WorkerResult{}, err
	}

	conn, err := net.Dial("tcp", cfg.CoordAddr)
	if err != nil {
		return WorkerResult{}, fmt.Errorf("dist: rank %d dial coordinator: %w", cfg.Rank, err)
	}
	defer conn.Close()
	ctrl := &ctrlConn{conn: conn, rank: cfg.Rank, workers: cfg.Workers, who: fmt.Sprintf("rank %d", cfg.Rank)}

	// Transport setup: a ring listener, whose address the hello carries,
	// or a parameter-server client once the peers frame starts the run.
	var l net.Listener
	var addr []byte
	if cfg.Strategy == RunRing {
		if l, err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
			return WorkerResult{}, err
		}
		defer l.Close()
		addr = []byte(l.Addr().String())
	}
	if err := ctrl.send(kindHello, addr); err != nil {
		return WorkerResult{}, err
	}
	_, payload, err := ctrl.recv(kindPeers)
	if err != nil {
		return WorkerResult{}, err
	}
	// The coordinator now waits for done, bounded by this rank's silence,
	// so the beat covers the transport setup as well as training.
	stop := ctrl.heartbeats()
	defer stop()
	peers := strings.Split(string(payload), "\x00")
	if len(peers) != cfg.Workers {
		return WorkerResult{}, fmt.Errorf("dist: %s: %w: %d peers for %d workers", ctrl.who, errBadLength, len(peers), cfg.Workers)
	}
	var ring *Ring
	var ps *PSClient
	if l != nil {
		ring, err = NewRing(l, peers[(cfg.Rank+1)%cfg.Workers], RingConfig{
			Rank: cfg.Rank, Workers: cfg.Workers, Compression: cfg.Compression, BytesPerSec: cfg.BytesPerSec,
		})
		if err != nil {
			return WorkerResult{}, err
		}
		defer ring.Close()
	} else {
		ps, err = DialPSThrottled(cfg.PSAddr, cfg.BytesPerSec)
		if err != nil {
			return WorkerResult{}, err
		}
		defer ps.Close()
	}

	res, err := trainWorker(cfg, model, ring, ps)
	stop()
	if err != nil {
		return WorkerResult{}, err
	}

	// Final barrier: tell the coordinator this rank finished, wait for
	// every other rank, then (ps strategies) pull the settled weights so
	// all ranks hold the same final state even under async updates. In a
	// sync run the last push reply already carried them and the pull is a
	// header each way.
	if err := ctrl.send(kindDone, nil); err != nil {
		return WorkerResult{}, err
	}
	if _, _, err := ctrl.recv(kindAllDone); err != nil {
		return WorkerResult{}, err
	}
	if ps != nil {
		weights, _, err := ps.Pull()
		if err != nil {
			return WorkerResult{}, err
		}
		if err := LoadWeights(res.net.Params(), weights); err != nil {
			return WorkerResult{}, err
		}
		in, out := ps.WireBytes()
		res.result.WireIn, res.result.WireOut = in, out
	}
	res.result.Hash = res.net.WeightsHash()
	payload, err = resultPayload(&res.result)
	if err == nil {
		err = ctrl.send(kindResult, payload)
	}
	if err != nil {
		return WorkerResult{}, err
	}
	return res.result, nil
}

// trainResult bundles a finished worker's network with its metrics.
type trainResult struct {
	net    *graph.Network
	result WorkerResult
}

// trainWorker runs the per-rank training loop over the prepared
// transport.
func trainWorker(cfg WorkerConfig, model RunModel, ring *Ring, ps *PSClient) (*trainResult, error) {
	net := model.Build(cfg.Seed)
	opt := optim.NewSGD(cfg.LR)
	dataRNG := tensor.NewRNG(cfg.Seed + 1000)
	rows := cfg.GlobalBatch / cfg.Workers
	meter := metrics.NewMeter(rows)
	res := WorkerResult{Rank: cfg.Rank, Steps: cfg.Steps}

	// grads views the live gradient buffers: a push encodes straight onto
	// the wire before it returns, so it needs no per-step copy.
	var grads [][]float32
	if ps != nil {
		// Start from the server's weights. The rank built the model from
		// the seed the server built its master from, so the handshake
		// usually finds them current and nothing comes back to load; a
		// mismatch, or an async server already past version 0, sends the
		// weights.
		weights, _, err := ps.Handshake(net.Params())
		if err != nil {
			return nil, err
		}
		if weights != nil {
			if err := LoadWeights(net.Params(), weights); err != nil {
				return nil, err
			}
		}
		for _, p := range net.Params() {
			grads = append(grads, p.Grad.Data())
		}
	}

	// A ring rank exchanges the network's flat buffers in place and steps
	// the optimizer on its own chunk of them only (none when it is empty),
	// piece by piece as the round reduces them.
	var values, flat []float32
	var shard *ringShard
	if ring != nil {
		values, flat = net.FlatParams()
		shard = ring.newShard(values, flat, opt)
	}

	// exchange is the apply half of every step: the gradients leave this
	// rank and the parameters come back updated.
	exchange := func(params []*layers.Param) error {
		start := time.Now()
		defer func() { res.CommSec += time.Since(start).Seconds() }()
		if ring != nil {
			return ring.round(flat, values, shard)
		}
		weights, _, err := ps.PushRanked(cfg.Rank, cfg.Compression, grads)
		if err != nil {
			return err
		}
		return LoadWeights(params, weights)
	}

	// The step's phase spans are no-ops unless the profiler is on; with
	// cfg.Profile they give every kernel and comm span a phase lineage
	// for the what-if dependence graph.
	if cfg.Profile {
		prof.EnableWithMaxRecords(distProfileMaxRecords)
	}
	var err error
	// Every rank draws its own rows of the same global batch into one
	// buffer for the run.
	xs := tensor.New(append([]int{rows}, model.Shape...)...)
	ys := make([]int, rows)
	wallStart := time.Now()
	for step := 0; step < cfg.Steps; step++ {
		stepStart := time.Now()
		syntheticRows(dataRNG, model.Classes, cfg.GlobalBatch, cfg.Rank*rows, xs.Data(), ys)
		var sr graph.StepResult
		if sr, err = graph.TrainClassifierExchanged(net, opt, xs, ys, exchange); err != nil {
			break
		}
		if step == 0 {
			res.FirstLoss = sr.Loss
		}
		res.LastLoss = sr.Loss
		meter.Record(time.Since(stepStart).Seconds())
	}
	if cfg.Profile {
		// The collector is process-global: a rank that failed mid-run must
		// not leave it recording.
		prof.Disable()
	}
	if err != nil {
		return nil, err
	}
	res.WallSec = time.Since(wallStart).Seconds()
	res.Window = meter.Sample(0.25, cfg.Steps)
	if ring != nil {
		res.WireIn, res.WireOut = ring.WireBytes()
	}
	if cfg.Profile {
		res.Trace = prof.Current(prof.Meta{
			Model:         cfg.Model,
			Steps:         cfg.Steps,
			Batch:         cfg.GlobalBatch,
			Workers:       cfg.Workers,
			Strategy:      cfg.Strategy.String(),
			Compression:   cfg.Compression.String(),
			BandwidthMBps: cfg.BytesPerSec / 1e6,
			Rank:          cfg.Rank,
			CPUs:          runtime.NumCPU(),
		})
	}
	return &trainResult{net: net, result: res}, nil
}

// distProfileMaxRecords sizes the profiled-run timeline: a few steps of
// a deep model emit thousands of spans per step, and a truncated capture
// cannot be replayed, so leave generous headroom. The trace reader's
// bounds (internal/prof) are derived from this cap.
const distProfileMaxRecords = 1 << 20

// BuildMasterParams builds the parameter-server master network for a
// run: the same model and seed the workers use, so every rank's opening
// handshake finds its local initialization already current.
func BuildMasterParams(modelName string, seed uint64) (*graph.Network, []*layers.Param, error) {
	model, err := RunModelByName(modelName)
	if err != nil {
		return nil, nil, err
	}
	net := model.Build(seed)
	return net, net.Params(), nil
}
