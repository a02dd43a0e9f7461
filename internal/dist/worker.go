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

// The distributed worker runtime: one RunWorker call is one rank of a
// real data-parallel training job — an OS process spawned by `tbd dist`,
// or a goroutine in the in-process benchmarks; either way the gradients
// move over real TCP sockets. Workers coordinate through a tiny gob
// control protocol (hello -> peers -> done -> all-done -> result) owned
// by the Coordinator in coord.go.

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

// SyntheticBatch generates n labeled samples: gaussian noise with a
// class-dependent offset on one feature, the same separable-classes
// construction the in-process data-parallel tests train on. Every worker
// draws the identical global batch from an identically seeded RNG and
// takes its own shard, so the data pipeline is deterministic with no
// coordinator involvement.
func SyntheticBatch(rng *tensor.RNG, shape []int, classes, n int) (*tensor.Tensor, []int) {
	inner := 1
	for _, d := range shape {
		inner *= d
	}
	x := tensor.New(append([]int{n}, shape...)...)
	data := x.Data()
	labels := make([]int, n)
	for i := 0; i < n; i++ {
		c := rng.Intn(classes)
		labels[i] = c
		base := i * inner
		for j := 0; j < inner; j++ {
			v := float32(rng.Norm()) * 0.3
			if j == c%inner {
				v += 2
			}
			data[base+j] = v
		}
	}
	return x, labels
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

	ctrl, err := net.Dial("tcp", cfg.CoordAddr)
	if err != nil {
		return WorkerResult{}, fmt.Errorf("dist: rank %d dial coordinator: %w", cfg.Rank, err)
	}
	defer ctrl.Close()
	dec, enc := gob.NewDecoder(ctrl), gob.NewEncoder(ctrl)
	send := func(m ctrlMsg) error {
		if err := ctrl.SetWriteDeadline(time.Now().Add(ctrlTimeout)); err != nil {
			return err
		}
		return enc.Encode(&m)
	}
	recv := func(wantKind string) (ctrlMsg, error) {
		if err := ctrl.SetReadDeadline(time.Now().Add(ctrlTimeout)); err != nil {
			return ctrlMsg{}, err
		}
		var m ctrlMsg
		if err := dec.Decode(&m); err != nil {
			return ctrlMsg{}, fmt.Errorf("dist: rank %d await %s: %w", cfg.Rank, wantKind, err)
		}
		if m.Kind != wantKind {
			return ctrlMsg{}, fmt.Errorf("dist: rank %d got %q, want %q", cfg.Rank, m.Kind, wantKind)
		}
		return m, nil
	}

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
		if err := send(hello); err != nil {
			return WorkerResult{}, err
		}
		peers, err := recv("peers")
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
		if err := send(hello); err != nil {
			return WorkerResult{}, err
		}
		if _, err := recv("peers"); err != nil {
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
	if err := send(ctrlMsg{Kind: "done", Rank: cfg.Rank}); err != nil {
		return WorkerResult{}, err
	}
	if _, err := recv("all-done"); err != nil {
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
	if err := send(ctrlMsg{Kind: "result", Rank: cfg.Rank, Res: res.result}); err != nil {
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
	}

	// The phase spans below are no-ops unless the profiler is on; with
	// cfg.Profile they give every kernel and comm span a phase lineage
	// for the what-if dependence graph.
	if cfg.Profile {
		prof.EnableWithMaxRecords(distProfileMaxRecords)
	}

	var flat []float32
	wallStart := time.Now()
	for step := 0; step < cfg.Steps; step++ {
		stepStart := time.Now()
		st := prof.Begin(prof.CatPhase, "step")
		// Every rank draws the same global batch and takes its shard.
		x, labels := SyntheticBatch(dataRNG, model.Shape, model.Classes, cfg.GlobalBatch)
		xs, ys := SplitBatch(x, labels, cfg.Workers)
		optim.ZeroGrads(net.Params())
		fw := prof.BeginChild(&st, prof.CatPhase, "phase.forward")
		logits := net.Forward(xs[cfg.Rank], true)
		fw.End()
		ls := prof.BeginChild(&st, prof.CatPhase, "phase.loss")
		loss, grad := tensor.CrossEntropy(logits, ys[cfg.Rank])
		ls.End()
		bw := prof.BeginChild(&st, prof.CatPhase, "phase.backward")
		net.Backward(grad)
		bw.End()
		if step == 0 {
			res.FirstLoss = loss
		}
		res.LastLoss = loss

		commStart := time.Now()
		sync := prof.BeginChild(&st, prof.CatPhase, "phase.sync")
		if ring != nil {
			flat = net.GradVector(flat)
			if err := ring.AllReduce(flat); err != nil {
				sync.End()
				st.End()
				return nil, err
			}
			net.SetGradVector(flat)
			opt.Step(net.Params())
		} else {
			weights, _, err := ps.PushRanked(cfg.Rank, cfg.Compression, GradSlices(net.Params()))
			if err != nil {
				sync.End()
				st.End()
				return nil, err
			}
			if err := LoadWeights(net.Params(), weights); err != nil {
				sync.End()
				st.End()
				return nil, err
			}
		}
		sync.End()
		res.CommSec += time.Since(commStart).Seconds()
		st.End()
		meter.Record(time.Since(stepStart).Seconds())
	}
	res.WallSec = time.Since(wallStart).Seconds()
	res.Window = meter.Sample(0.25, cfg.Steps)
	if ring != nil {
		res.WireIn, res.WireOut = ring.WireBytes()
	}
	if cfg.Profile {
		prof.Disable()
		tr, err := whatif.Capture(whatif.Meta{
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
		res.Trace = tr
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
