// Package dist is the data-parallel training runtime (§2.2, §4.5), sockets
// and processes only. One RunWorker call is one rank — an OS process
// spawned by `tbd dist`, or a goroutine under RunLocal — and either way the
// gradients move over real TCP: a ring all-reduce (ring.go) or a
// synchronous / bounded-staleness parameter server (psnet.go), both on
// wire.go's frames and optionally throttled (throttle.go). Ranks meet
// through a tiny gob control protocol (hello -> peers -> done -> all-done
// -> result) owned by the Coordinator in coord.go. The simulated cluster
// model of Figure 10 lives in internal/sim.
package dist

import (
	"encoding/gob"
	"fmt"
	"net"
	"time"

	"tbd/internal/graph"
	"tbd/internal/layers"
	"tbd/internal/metrics"
	"tbd/internal/models"
	"tbd/internal/optim"
	"tbd/internal/prof"
	"tbd/internal/tensor"
	"tbd/internal/whatif"
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
	// profiled). It rides the gob result message so the coordinator can
	// merge every rank into one cluster trace.
	Trace *whatif.Trace
}

// ctrlTimeout bounds every control-protocol read and write.
const ctrlTimeout = 120 * time.Second

// ctrlMsg is one control-protocol message (gob).
type ctrlMsg struct {
	// Kind is "hello", "peers", "done", "all-done", or "result".
	Kind  string
	Rank  int
	Addr  string
	Peers []string
	Res   WorkerResult
}

// ctrlConn is one end of a rank's control connection, the same on the
// coordinator and the worker: every message under ctrlTimeout, every
// receive checked against the kind the protocol expects next.
type ctrlConn struct {
	conn net.Conn
	dec  *gob.Decoder
	enc  *gob.Encoder
	// who names this end in errors: "rank 2", "coordinator (rank 2)".
	who string
}

func newCtrlConn(conn net.Conn, who string) *ctrlConn {
	return &ctrlConn{conn: conn, dec: gob.NewDecoder(conn), enc: gob.NewEncoder(conn), who: who}
}

func (c *ctrlConn) send(m ctrlMsg) error {
	if err := c.conn.SetWriteDeadline(time.Now().Add(ctrlTimeout)); err != nil {
		return err
	}
	return c.enc.Encode(&m)
}

func (c *ctrlConn) recv(wantKind string) (ctrlMsg, error) {
	if err := c.conn.SetReadDeadline(time.Now().Add(ctrlTimeout)); err != nil {
		return ctrlMsg{}, err
	}
	var m ctrlMsg
	if err := c.dec.Decode(&m); err != nil {
		return ctrlMsg{}, fmt.Errorf("dist: %s await %s: %w", c.who, wantKind, err)
	}
	if m.Kind != wantKind {
		return ctrlMsg{}, fmt.Errorf("dist: %s got %q, want %q", c.who, m.Kind, wantKind)
	}
	return m, nil
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
	if cfg.GlobalBatch%cfg.Workers != 0 {
		return WorkerResult{}, fmt.Errorf("dist: global batch %d not divisible by %d workers", cfg.GlobalBatch, cfg.Workers)
	}

	conn, err := net.Dial("tcp", cfg.CoordAddr)
	if err != nil {
		return WorkerResult{}, fmt.Errorf("dist: rank %d dial coordinator: %w", cfg.Rank, err)
	}
	defer conn.Close()
	ctrl := newCtrlConn(conn, fmt.Sprintf("rank %d", cfg.Rank))

	// Transport setup: a ring listener or a parameter-server client.
	var ring *Ring
	var ps *PSClient
	hello := ctrlMsg{Kind: "hello", Rank: cfg.Rank}
	if cfg.Strategy == RunRing {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return WorkerResult{}, err
		}
		defer l.Close()
		hello.Addr = l.Addr().String()
		if err := ctrl.send(hello); err != nil {
			return WorkerResult{}, err
		}
		peers, err := ctrl.recv("peers")
		if err != nil {
			return WorkerResult{}, err
		}
		if len(peers.Peers) != cfg.Workers {
			return WorkerResult{}, fmt.Errorf("dist: rank %d got %d peers for %d workers", cfg.Rank, len(peers.Peers), cfg.Workers)
		}
		ring, err = NewRing(l, peers.Peers[(cfg.Rank+1)%cfg.Workers], RingConfig{
			Rank: cfg.Rank, Workers: cfg.Workers, Compression: cfg.Compression, BytesPerSec: cfg.BytesPerSec,
		})
		if err != nil {
			return WorkerResult{}, err
		}
		defer ring.Close()
	} else {
		if err := ctrl.send(hello); err != nil {
			return WorkerResult{}, err
		}
		if _, err := ctrl.recv("peers"); err != nil {
			return WorkerResult{}, err
		}
		ps, err = DialPSThrottled(cfg.PSAddr, cfg.BytesPerSec)
		if err != nil {
			return WorkerResult{}, err
		}
		defer ps.Close()
	}

	res, err := trainWorker(cfg, model, ring, ps)
	if err != nil {
		return WorkerResult{}, err
	}

	// Final barrier: tell the coordinator this rank finished, wait for
	// every other rank, then (ps strategies) pull the settled weights so
	// all ranks hold the same final state even under async updates. In a
	// sync run the last push reply already carried them and the pull is a
	// header each way.
	if err := ctrl.send(ctrlMsg{Kind: "done", Rank: cfg.Rank}); err != nil {
		return WorkerResult{}, err
	}
	if _, err := ctrl.recv("all-done"); err != nil {
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
	if err := ctrl.send(ctrlMsg{Kind: "result", Rank: cfg.Rank, Res: res.result}); err != nil {
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
	shard := cfg.GlobalBatch / cfg.Workers
	meter := metrics.NewMeter(shard)
	res := WorkerResult{Rank: cfg.Rank, Steps: cfg.Steps}

	// grads views the live gradient buffers: a push encodes straight onto
	// the wire before it returns, so it needs no per-step copy.
	var grads [][]float32
	if ps != nil {
		// Adopt the server's initial weights (same seed, but explicit
		// sync keeps the contract obvious and covers future drift).
		weights, _, err := ps.Pull()
		if err != nil {
			return nil, err
		}
		if err := LoadWeights(net.Params(), weights); err != nil {
			return nil, err
		}
		for _, p := range net.Params() {
			grads = append(grads, p.Grad.Data())
		}
	}

	// exchange is the apply half of every step: the gradients leave this
	// rank and the parameters come back updated.
	var flat []float32
	exchange := func(params []*layers.Param) error {
		start := time.Now()
		defer func() { res.CommSec += time.Since(start).Seconds() }()
		if ring != nil {
			flat = net.GradVector(flat)
			if err := ring.AllReduce(flat); err != nil {
				return err
			}
			net.SetGradVector(flat)
			opt.Step(params)
			return nil
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
	shardShape := append([]int{shard}, model.Shape...)
	wallStart := time.Now()
	for step := 0; step < cfg.Steps; step++ {
		stepStart := time.Now()
		// Every rank draws the same global batch and trains on a view of
		// its own rows.
		x, labels := SyntheticBatch(dataRNG, model.Shape, model.Classes, cfg.GlobalBatch)
		per := x.Numel() / cfg.Workers
		xs := tensor.FromSlice(x.Data()[cfg.Rank*per:(cfg.Rank+1)*per], shardShape...)
		ys := labels[cfg.Rank*shard : (cfg.Rank+1)*shard]
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
		res.Trace, err = whatif.Capture(whatif.Meta{
			Model:         cfg.Model,
			Steps:         cfg.Steps,
			Batch:         cfg.GlobalBatch,
			Workers:       cfg.Workers,
			Strategy:      cfg.Strategy.String(),
			Compression:   cfg.Compression.String(),
			BandwidthMBps: cfg.BytesPerSec / 1e6,
			Rank:          cfg.Rank,
		})
		if err != nil {
			return nil, err
		}
	}
	return &trainResult{net: net, result: res}, nil
}

// distProfileMaxRecords sizes the profiled-run timeline: a few steps of
// a deep model emit thousands of spans per step, and a truncated capture
// is a hard error in whatif.Capture, so leave generous headroom.
const distProfileMaxRecords = 1 << 20

// BuildMasterParams builds the parameter-server master network for a
// run: the same model and seed the workers use, so rank 0's initial pull
// matches every replica's local initialization.
func BuildMasterParams(modelName string, seed uint64) (*graph.Network, []*layers.Param, error) {
	model, err := RunModelByName(modelName)
	if err != nil {
		return nil, nil, err
	}
	net := model.Build(seed)
	return net, net.Params(), nil
}
