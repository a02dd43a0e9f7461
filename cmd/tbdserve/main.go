// Command tbdserve runs the replicated dynamic-batching inference
// daemon over a numeric model twin, and ships both load generators
// (closed-loop concurrency sweep, open-loop Poisson schedule) used to
// trace its throughput-vs-latency behavior.
//
// Usage:
//
//	tbdserve [serve] [-model mlp] [-addr :8093] [-replicas 1] [-slo 0]
//	         [-batch 64] [-wait 1ms] [-queue 256] [-parallel N]
//	         [-seed 42] [-trace batches.json] [-profile] [-fp16]
//	tbdserve loadgen [-url http://localhost:8093] [-concurrency 32]
//	         [-duration 10s]
//	tbdserve loadgen [-url ...] -phases 200:2s,2000:2s,200:2s [-poisson]
//	         [-workers 64] [-slo 50ms] [-seed 1]
//
// The daemon exposes POST /predict (with an optional per-request
// "slo_ms" budget), GET /stats (fleet aggregate plus per-replica
// detail), GET /healthz, and POST /swap, which hot-swaps a checkpoint
// streamed in the request body into every replica with zero downtime.
// Queue-full sheds are 429; SLO-infeasible sheds and drain are 503; a
// body over the size a well-formed request could need is 413. With
// -trace it writes the captured per-batch timeline as Chrome trace-event
// JSON on shutdown.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"tbd/internal/graph"
	"tbd/internal/models"
	"tbd/internal/prof"
	"tbd/internal/serve"
	"tbd/internal/tensor"
)

func main() {
	args := os.Args[1:]
	cmd := "serve"
	if len(args) > 0 && (args[0] == "serve" || args[0] == "loadgen") {
		cmd, args = args[0], args[1:]
	}
	var err error
	switch cmd {
	case "serve":
		err = cmdServe(args)
	case "loadgen":
		err = cmdLoadgen(args)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "tbdserve:", err)
		os.Exit(1)
	}
}

// Connection deadlines of the daemon's http.Server. ReadTimeout covers a
// whole request body, so it is sized for a /swap checkpoint upload, not
// for a /predict sample.
const (
	readHeaderTimeout = 5 * time.Second
	readTimeout       = time.Minute
	idleTimeout       = 2 * time.Minute
)

func cmdServe(args []string) error {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	model := fs.String("model", "mlp", fmt.Sprintf("serve twin to load %v", models.ServeTwinNames()))
	addr := fs.String("addr", ":8093", "listen address")
	replicas := fs.Int("replicas", 1, "batch runners sharing one weight snapshot")
	slo := fs.Duration("slo", 0, "default per-request latency budget; infeasible requests are shed with 503 (0 = off)")
	batch := fs.Int("batch", 64, "max dynamic batch size per replica")
	wait := fs.Duration("wait", time.Millisecond, "max wait for a batch to fill")
	queue := fs.Int("queue", 256, "admission queue depth per replica (0 = 4*batch)")
	parallel := fs.Int("parallel", 0, "tensor worker parallelism before the per-replica clamp (0 = GOMAXPROCS)")
	seed := fs.Uint64("seed", 42, "weight init seed")
	traceOut := fs.String("trace", "", "write per-batch Chrome trace JSON to this `file` on shutdown")
	profile := fs.Bool("profile", false, "enable the live profiler; snapshot at GET /debug/prof, summary on shutdown")
	fp16 := fs.Bool("fp16", false, "freeze weights to fp16 storage (halves resident weight bytes; outputs shift within quantization error)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *parallel > 0 {
		tensor.SetParallelism(*parallel)
	} else {
		tensor.SetParallelism(runtime.GOMAXPROCS(0))
	}

	// Probe the twin once for the banner (and to fail fast on a bad
	// -model before the fleet factory hides the error behind replicas).
	_, shape, err := models.ServeTwin(*model, tensor.NewRNG(*seed))
	if err != nil {
		return err
	}
	if *profile {
		prof.Enable()
	}
	factory := func() (*serve.Session, error) {
		net, shp, err := models.ServeTwin(*model, tensor.NewRNG(*seed))
		if err != nil {
			return nil, err
		}
		return serve.NewSession(net, shp...), nil
	}
	traceCap := 0
	if *traceOut != "" {
		traceCap = 1 << 16
	}
	fleet, err := serve.NewFleet(factory, serve.FleetConfig{
		Replicas:    *replicas,
		MaxBatch:    *batch,
		MaxWait:     *wait,
		QueueDepth:  *queue,
		SLO:         *slo,
		HalfWeights: *fp16,
		TraceEvents: traceCap,
	})
	if err != nil {
		return err
	}

	srv := &http.Server{
		Addr:              *addr,
		Handler:           newHandler(fleet),
		ReadHeaderTimeout: readHeaderTimeout,
		ReadTimeout:       readTimeout,
		IdleTimeout:       idleTimeout,
	}
	errCh := make(chan error, 1)
	go func() {
		cfg := fleet.Config()
		fmt.Printf("tbdserve: serving %s (sample shape %v) on %s, replicas=%d shared=%t batch<=%d wait=%v queue=%d slo=%v gemm=%s\n",
			*model, shape, *addr, fleet.Replicas(), fleet.SharedWeights(), cfg.MaxBatch, cfg.MaxWait,
			cfg.QueueDepth, cfg.SLO, tensor.GemmKernelTier())
		if err := srv.ListenAndServe(); !errors.Is(err, http.ErrServerClosed) {
			errCh <- err
			return
		}
		errCh <- nil
	}()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errCh:
		fleet.Close()
		return err
	case s := <-sig:
		fmt.Printf("tbdserve: %v, draining...\n", s)
	}

	// Stop taking connections, then drain admitted requests.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		return err
	}
	fleet.Close()

	snap := fleet.Stats()
	out, _ := json.MarshalIndent(snap, "", "  ")
	fmt.Printf("tbdserve: final stats\n%s\n", out)

	if *profile {
		prof.Disable()
		fmt.Println()
		if err := prof.Stats().Table(10).Render(os.Stdout); err != nil {
			return err
		}
	}

	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			return err
		}
		defer f.Close()
		tl := fleet.Timeline()
		if err := tl.WriteChromeTrace(f); err != nil {
			return err
		}
		fmt.Printf("tbdserve: wrote batch trace to %s (%d events, %d dropped)\n",
			*traceOut, len(tl.Events), fleet.TraceEventsDropped())
	}
	return <-errCh
}

// newHandler is the daemon's HTTP surface: the fleet handler with /swap
// wired to load a checkpoint stream into every replica.
func newHandler(fleet *serve.Fleet) http.Handler {
	return serve.NewFleetHandler(fleet, serve.FleetHandlerOptions{
		Swap: func(body io.Reader) error {
			return fleet.Swap(func(primary *serve.Session) error {
				net, ok := primary.Model().(*graph.Network)
				if !ok {
					return fmt.Errorf("model %T does not accept checkpoints", primary.Model())
				}
				step, err := graph.LoadCheckpoint(body, net)
				if err != nil {
					return err
				}
				fmt.Printf("tbdserve: hot-swapping checkpoint at step %d\n", step)
				return nil
			})
		},
	})
}

// parsePhases turns "200:2s,2000:500ms" into a schedule.
func parsePhases(spec string) ([]serve.Phase, error) {
	var phases []serve.Phase
	for _, part := range strings.Split(spec, ",") {
		rateStr, durStr, ok := strings.Cut(strings.TrimSpace(part), ":")
		if !ok {
			return nil, fmt.Errorf("phase %q: want rate:duration", part)
		}
		rate, err := strconv.ParseFloat(rateStr, 64)
		if err != nil || rate < 0 {
			return nil, fmt.Errorf("phase %q: bad rate", part)
		}
		dur, err := time.ParseDuration(durStr)
		if err != nil || dur <= 0 {
			return nil, fmt.Errorf("phase %q: bad duration", part)
		}
		phases = append(phases, serve.Phase{Rate: rate, Duration: dur})
	}
	if len(phases) == 0 {
		return nil, errors.New("empty phase schedule")
	}
	return phases, nil
}

func cmdLoadgen(args []string) error {
	fs := flag.NewFlagSet("loadgen", flag.ExitOnError)
	url := fs.String("url", "http://localhost:8093", "daemon base URL")
	concurrency := fs.Int("concurrency", 32, "closed-loop workers")
	duration := fs.Duration("duration", 10*time.Second, "closed-loop run length")
	phasesSpec := fs.String("phases", "", "open-loop schedule as rate:dur,rate:dur (e.g. 200:2s,2000:2s); enables open-loop mode")
	rate := fs.Float64("rate", 0, "open-loop arrival rate in req/s (shorthand for a single phase of -duration)")
	poisson := fs.Bool("poisson", false, "open loop: Poisson (exponential) inter-arrivals instead of uniform pacing")
	workers := fs.Int("workers", 64, "open loop: max in-flight requests")
	sloMs := fs.Float64("slo", 0, "per-request slo_ms attached to each predict (0 = daemon default)")
	seed := fs.Uint64("seed", 1, "open loop: schedule RNG seed")
	if err := fs.Parse(args); err != nil {
		return err
	}

	// Learn the sample shape from the daemon.
	resp, err := http.Get(*url + "/healthz")
	if err != nil {
		return err
	}
	var health struct {
		SampleShape []int `json:"sample_shape"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		_ = resp.Body.Close() // the decode error is the one worth reporting
		return err
	}
	if err := resp.Body.Close(); err != nil {
		return err
	}
	n := 1
	for _, d := range health.SampleShape {
		n *= d
	}
	if n == 0 {
		return fmt.Errorf("daemon reported empty sample shape %v", health.SampleShape)
	}

	// Pre-marshal request bodies: values in [0, 1) are valid for every
	// twin (they floor to token id 0 for embedding models).
	rng := tensor.NewRNG(7)
	nBodies := *concurrency
	if nBodies < *workers {
		nBodies = *workers
	}
	bodies := make([][]byte, nBodies)
	for w := range bodies {
		input := make([]float32, n)
		for i := range input {
			input[i] = rng.Float32()
		}
		bodies[w], _ = json.Marshal(serve.PredictRequest{Input: input, SLOMs: *sloMs})
	}

	client := &http.Client{Timeout: 30 * time.Second}
	predictURL := *url + "/predict"

	if *phasesSpec != "" || *rate > 0 {
		spec := *phasesSpec
		phases, err := parsePhases(spec)
		if spec == "" {
			phases, err = []serve.Phase{{Rate: *rate, Duration: *duration}}, nil
		}
		if err != nil {
			return err
		}
		var next atomic.Uint64
		res := serve.OpenLoadGen{
			Phases:  phases,
			Poisson: *poisson,
			Workers: *workers,
			Seed:    *seed,
		}.Run(func() error {
			i := int(next.Add(1) % uint64(len(bodies)))
			return post(client, predictURL, bodies[i])
		})
		fmt.Printf("open loop (%d workers, poisson=%t): offered %d, ok %d, shed %d, errors %d, dropped %d in %v\n",
			*workers, *poisson, res.Offered, res.OK, res.Shed, res.Errors, res.Dropped,
			res.Elapsed.Round(time.Millisecond))
		fmt.Printf("schedule-relative latency: p50 %.2fms p99 %.2fms\n", res.P50Ms(), res.P99Ms())
		for i, p := range res.Phases {
			fmt.Printf("  phase %d %6.0f req/s x %-6v offered %6d ok %6d shed %6d err %4d  p50 %8.2fms  p99 %8.2fms\n",
				i, p.Rate, p.Duration, p.Offered, p.OK, p.Shed, p.Errors, p.P50Ms(), p.P99Ms())
		}
		return nil
	}

	res := serve.LoadGen{Concurrency: *concurrency, Duration: *duration}.Run(func(w int) error {
		return post(client, predictURL, bodies[w])
	})
	fmt.Printf("concurrency %d for %v: %d ok, %d errors, %.0f req/s, latency p50 %.2fms p95 %.2fms p99 %.2fms\n",
		res.Concurrency, res.Elapsed.Round(time.Millisecond), res.Requests, res.Errors,
		res.ThroughputRPS, res.P50Ms(), res.P95Ms(), res.P99Ms())
	return nil
}

// post issues one predict, translating admission-control status codes
// back into the serve sentinels so the open-loop generator can class
// sheds apart from real errors.
func post(client *http.Client, predictURL string, body []byte) error {
	r, err := client.Post(predictURL, "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	// Drain and close so the connection is reusable; either failure
	// counts as a request error in the loadgen tally.
	_, cpErr := io.Copy(io.Discard, r.Body)
	if err := r.Body.Close(); err != nil {
		return err
	}
	if cpErr != nil {
		return cpErr
	}
	switch r.StatusCode {
	case http.StatusOK:
		return nil
	case http.StatusTooManyRequests:
		return serve.ErrOverloaded
	case http.StatusServiceUnavailable:
		return serve.ErrDeadline
	default:
		return fmt.Errorf("status %d", r.StatusCode)
	}
}
