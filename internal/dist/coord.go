package dist

import (
	"errors"
	"fmt"
	"net"
	"sort"
	"sync"
	"time"

	"tbd/internal/graph"
	"tbd/internal/metrics"
	"tbd/internal/optim"
)

// The run coordinator: accepts one control connection per rank, wires
// the ring (or hosts the parameter server), runs the done/all-done final
// barrier, and collects per-rank results. It is transport-agnostic about
// where the workers live — OS processes spawned by `tbd dist` or
// goroutines in the benchmarks — because everything flows over TCP.

// CoordConfig describes the run the coordinator supervises.
type CoordConfig struct {
	Workers     int
	Strategy    RunStrategy
	Compression Compression
	Model       string
	Seed        uint64
	LR          float32
	// Staleness is the SSP bound for ps-async (-1: unbounded).
	Staleness int
	// PSBytesPerSec throttles the parameter server's shared NIC (the
	// central bottleneck; 0 = unthrottled). Ring runs ignore it — each
	// ring rank throttles its own link via WorkerConfig.BytesPerSec.
	PSBytesPerSec float64
}

// RunSummary is the coordinator's view of a finished run.
type RunSummary struct {
	Results []WorkerResult // sorted by rank
	// Hash is the verified common weights fingerprint.
	Hash uint64
	// Identical reports whether every rank finished with the same hash.
	Identical bool
	// Cluster aggregates the per-worker measurement windows.
	Cluster metrics.Window
	// WireBytes sums each worker's in+out wire traffic.
	WireBytes int64
}

// Coordinator supervises one distributed run.
type Coordinator struct {
	cfg      CoordConfig
	ctrl     net.Listener
	ps       *PSServer
	psMaster *graph.Network
}

// NewCoordinator opens the control listener and, for parameter-server
// strategies, boots the server from the same (model, seed) the workers
// build — so the initial weights every rank pulls equal its own local
// initialization.
func NewCoordinator(cfg CoordConfig) (*Coordinator, error) {
	if cfg.Workers <= 0 {
		return nil, fmt.Errorf("dist: coordinator needs at least one worker, got %d", cfg.Workers)
	}
	if cfg.Strategy == RunPSAsync && cfg.Staleness < -1 {
		return nil, fmt.Errorf("dist: ps-async staleness %d, want >= -1 (-1: unbounded)", cfg.Staleness)
	}
	ctrl, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	c := &Coordinator{cfg: cfg, ctrl: ctrl}
	if cfg.Strategy != RunRing {
		master, params, err := BuildMasterParams(cfg.Model, cfg.Seed)
		if err != nil {
			ctrl.Close()
			return nil, err
		}
		psl, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			ctrl.Close()
			return nil, err
		}
		c.psMaster = master
		if cfg.Strategy == RunPSAsync {
			c.ps = ServeBoundedAsyncPS(psl, params, optim.NewSGD(cfg.LR), cfg.Workers, cfg.Staleness)
		} else {
			c.ps = ServePS(psl, params, optim.NewSGD(cfg.LR), cfg.Workers)
		}
		c.ps.ThrottleLink(cfg.PSBytesPerSec)
	}
	return c, nil
}

// RunLocal runs one whole job inside this process: a coordinator plus
// one RunWorker goroutine per rank, every socket real — the path `tbd
// dist` gives OS processes. steps, globalBatch and each rank's link rate
// (bytesPerSec, 0 = unthrottled) are what CoordConfig does not carry.
func RunLocal(cfg CoordConfig, steps, globalBatch int, bytesPerSec float64) (*RunSummary, error) {
	coord, err := NewCoordinator(cfg)
	if err != nil {
		return nil, err
	}
	var wg sync.WaitGroup
	errs := make([]error, cfg.Workers, cfg.Workers+1)
	for rank := 0; rank < cfg.Workers; rank++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			_, errs[rank] = RunWorker(WorkerConfig{
				Rank:        rank,
				Workers:     cfg.Workers,
				Strategy:    cfg.Strategy,
				Compression: cfg.Compression,
				BytesPerSec: bytesPerSec,
				Staleness:   cfg.Staleness,
				Model:       cfg.Model,
				Seed:        cfg.Seed,
				Steps:       steps,
				GlobalBatch: globalBatch,
				LR:          cfg.LR,
				CoordAddr:   coord.Addr(),
				PSAddr:      coord.PSAddr(),
			})
		}(rank)
	}
	summary, err := coord.Wait() // closes the coordinator
	wg.Wait()
	return summary, errors.Join(append(errs, err)...)
}

// Addr returns the control address workers dial.
func (c *Coordinator) Addr() string { return c.ctrl.Addr().String() }

// PSAddr returns the parameter-server address ("" for ring runs).
func (c *Coordinator) PSAddr() string {
	if c.ps == nil {
		return ""
	}
	return c.ps.Addr()
}

// Close releases the coordinator's listeners and parameter server.
func (c *Coordinator) Close() error {
	err := c.ctrl.Close()
	if c.ps != nil {
		if perr := c.ps.Close(); err == nil {
			err = perr
		}
	}
	return err
}

// Wait runs the control protocol to completion: collect hellos, publish
// the rank-ordered peer list, wait for every rank's done, release the
// final barrier, and gather results. It closes the coordinator before
// returning.
func (c *Coordinator) Wait() (*RunSummary, error) {
	defer c.Close()
	n := c.cfg.Workers

	// Phase 1: one hello per rank.
	conns := make([]*ctrlConn, n)
	// peers holds the ring listener address each rank advertised in its
	// hello ("" for parameter-server strategies).
	peers := make([]string, n)
	if tl, ok := c.ctrl.(*net.TCPListener); ok {
		if err := tl.SetDeadline(time.Now().Add(ctrlTimeout)); err != nil {
			return nil, err
		}
	}
	for i := 0; i < n; i++ {
		conn, err := c.ctrl.Accept()
		if err != nil {
			return nil, fmt.Errorf("dist: coordinator accept (%d of %d workers arrived): %w", i, n, err)
		}
		cc := newCtrlConn(conn, "coordinator")
		hello, err := cc.recv("hello")
		if err != nil {
			return nil, err
		}
		if hello.Rank < 0 || hello.Rank >= n {
			return nil, fmt.Errorf("dist: hello from rank %d outside [0, %d)", hello.Rank, n)
		}
		if conns[hello.Rank] != nil {
			return nil, fmt.Errorf("dist: two workers claimed rank %d", hello.Rank)
		}
		cc.who = fmt.Sprintf("coordinator (rank %d)", hello.Rank)
		conns[hello.Rank], peers[hello.Rank] = cc, hello.Addr
	}
	defer func() {
		for _, cc := range conns {
			cc.conn.Close()
		}
	}()

	// Phase 2: publish the rank-ordered ring addresses. PS workers get a
	// list of empty strings — the message is still their start barrier.
	for _, cc := range conns {
		if err := cc.send(ctrlMsg{Kind: "peers", Peers: peers}); err != nil {
			return nil, err
		}
	}

	// Phase 3: wait for every rank to finish training, then release the
	// final barrier simultaneously.
	for _, cc := range conns {
		if _, err := cc.recv("done"); err != nil {
			return nil, err
		}
	}
	for _, cc := range conns {
		if err := cc.send(ctrlMsg{Kind: "all-done"}); err != nil {
			return nil, err
		}
	}

	// Phase 4: collect results.
	summary := &RunSummary{Results: make([]WorkerResult, 0, n)}
	for _, cc := range conns {
		m, err := cc.recv("result")
		if err != nil {
			return nil, err
		}
		summary.Results = append(summary.Results, m.Res)
	}
	sort.Slice(summary.Results, func(i, j int) bool { return summary.Results[i].Rank < summary.Results[j].Rank })

	summary.Identical = true
	summary.Hash = summary.Results[0].Hash
	windows := make([]metrics.Window, 0, n)
	for _, r := range summary.Results {
		if r.Hash != summary.Hash {
			summary.Identical = false
		}
		summary.WireBytes += r.WireIn + r.WireOut
		windows = append(windows, r.Window)
	}
	summary.Cluster = metrics.AggregateWindows(windows)
	if !summary.Identical {
		return summary, fmt.Errorf("dist: workers finished with diverging weights")
	}
	return summary, nil
}
