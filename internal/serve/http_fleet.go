package serve

import (
	"encoding/json"
	"errors"
	"io"
	"math"
	"net/http"
	"time"

	"tbd/internal/prof"
	"tbd/internal/tensor"
)

// FleetHandlerOptions wires the endpoints that need capabilities beyond
// the fleet itself.
type FleetHandlerOptions struct {
	// Swap handles a POST /swap body (typically: decode a checkpoint
	// stream and load it into the fleet via Fleet.Swap with
	// dist.LoadCheckpoint on Session.Model). The body is size-limited;
	// return its read error wrapped (%w) so an overrun is answered with
	// 413. nil leaves /swap unregistered.
	Swap func(body io.Reader) error
}

// SwapResponse is the JSON reply to POST /swap.
type SwapResponse struct {
	Status     string  `json:"status"`
	Swaps      uint64  `json:"swaps"`
	LastSwapMs float64 `json:"last_swap_ms"`
}

// Request bodies are read through http.MaxBytesReader with limits
// computed from what the fleet serves, so no client can make the daemon
// buffer more than a well-formed request of that kind could need.
const (
	// jsonFloatBytes is generous for one JSON number and its separator: a
	// float64 printed at full precision is 24 characters.
	jsonFloatBytes = 32
	// predictBodySlack covers the object keys, slo_ms and whitespace.
	predictBodySlack = 1 << 10
	// swapBytesPerWeightByte: a checkpoint is a weights frame of fp32
	// values, against as little as 2 resident bytes per parameter under
	// HalfWeights.
	swapBytesPerWeightByte = 2
	// swapBodySlack covers the frame's 16-byte header and its layout table
	// (parameter names and shapes), which the loader bounds at 64 KiB.
	swapBodySlack = 16 + 64<<10
)

// bodyTooLarge reports whether err came from a body overrunning its
// http.MaxBytesReader limit.
func bodyTooLarge(err error) bool {
	var mbe *http.MaxBytesError
	return errors.As(err, &mbe)
}

// NewFleetHandler exposes a Fleet over HTTP/JSON:
//
//	POST /predict     {"input": [...], "slo_ms": b}  -> PredictResponse
//	GET  /stats       -> FleetSnapshot JSON (aggregate + per-replica)
//	GET  /healthz     -> {"status": "ok", "sample_shape": [...], "replicas": n}
//	GET  /debug/prof  -> live profiler snapshot (per-kernel stats + memory watermark)
//	POST /swap        -> zero-downtime weight hot-swap (when opts.Swap is set)
//
// Shed outcomes are deliberately distinct on the wire: queue-full sheds
// are 429 Too Many Requests (the client may retry immediately), while
// SLO-infeasible sheds and drain are 503 Service Unavailable (the client
// should back off). A malformed body or wrong-size sample is 400, and a
// body over the computed limit is 413.
func NewFleetHandler(f *Fleet, opts FleetHandlerOptions) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/predict", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			http.Error(w, "POST only", http.StatusMethodNotAllowed)
			return
		}
		primary := f.replicas[0].sess.Load()
		limit := int64(primary.SampleLen())*jsonFloatBytes + predictBodySlack
		var req PredictRequest
		// The decoder buffers a whole JSON value before building it, so an
		// oversized body fails here with no Input slice allocated.
		if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, limit)).Decode(&req); err != nil {
			if bodyTooLarge(err) {
				http.Error(w, "request body too large", http.StatusRequestEntityTooLarge)
				return
			}
			http.Error(w, "bad JSON: "+err.Error(), http.StatusBadRequest)
			return
		}
		if len(req.Input) != primary.SampleLen() {
			http.Error(w, "wrong sample size", http.StatusBadRequest)
			return
		}
		if req.SLOMs < 0 {
			http.Error(w, "negative slo_ms", http.StatusBadRequest)
			return
		}
		budget := f.cfg.SLO
		if req.SLOMs > 0 {
			// A positive slo_ms that converts to no deadline at all (under
			// a nanosecond, or past time.Duration's range) is refused,
			// not served without a deadline.
			ns := req.SLOMs * float64(time.Millisecond)
			if ns < 1 || ns >= math.MaxInt64 {
				http.Error(w, "slo_ms out of range: a budget is at least 1e-6 ms and below 9.2e12 ms", http.StatusBadRequest)
				return
			}
			budget = time.Duration(ns)
		}
		x := tensor.FromSlice(req.Input, primary.SampleShape()...)
		res, err := f.PredictSLO(x, budget)
		switch {
		case errors.Is(err, ErrOverloaded):
			http.Error(w, err.Error(), http.StatusTooManyRequests)
			return
		case errors.Is(err, ErrDeadline), errors.Is(err, ErrShuttingDown):
			http.Error(w, err.Error(), http.StatusServiceUnavailable)
			return
		case err != nil:
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		writeJSON(w, PredictResponse{
			Output:    res.Output,
			LatencyMs: 1e3 * res.Latency.Seconds(),
			BatchSize: res.BatchSize,
			Replica:   res.Replica,
		})
	})
	mux.HandleFunc("/stats", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, f.Stats())
	})
	mux.HandleFunc("/debug/prof", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, prof.Stats())
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, struct {
			Status      string `json:"status"`
			SampleShape []int  `json:"sample_shape"`
			Replicas    int    `json:"replicas"`
		}{"ok", f.replicas[0].sess.Load().SampleShape(), len(f.replicas)})
	})
	if opts.Swap != nil {
		mux.HandleFunc("/swap", func(w http.ResponseWriter, r *http.Request) {
			if r.Method != http.MethodPost {
				http.Error(w, "POST only", http.StatusMethodNotAllowed)
				return
			}
			limit := f.replicas[0].sess.Load().WeightBytes()*swapBytesPerWeightByte + swapBodySlack
			if err := opts.Swap(http.MaxBytesReader(w, r.Body, limit)); err != nil {
				// Whatever the reason, the old weights keep serving; the
				// swap simply did not happen.
				status := http.StatusBadRequest
				switch {
				case errors.Is(err, ErrShuttingDown):
					status = http.StatusServiceUnavailable
				case bodyTooLarge(err):
					status = http.StatusRequestEntityTooLarge
				}
				http.Error(w, err.Error(), status)
				return
			}
			snap := f.Stats()
			writeJSON(w, SwapResponse{Status: "ok", Swaps: snap.Swaps, LastSwapMs: snap.LastSwapMs})
		})
	}
	return mux
}
