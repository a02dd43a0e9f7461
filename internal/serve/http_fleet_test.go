package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"tbd/internal/graph"
	"tbd/internal/models"
	"tbd/internal/tensor"
)

func postPredict(t *testing.T, srv *httptest.Server, req PredictRequest) *http.Response {
	t.Helper()
	body, _ := json.Marshal(req)
	resp, err := http.Post(srv.URL+"/predict", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func TestHTTPFleetHandler(t *testing.T) {
	for _, replicas := range []int{1, 2} {
		t.Run(fmt.Sprintf("replicas=%d", replicas), func(t *testing.T) {
			checkHTTPHandler(t, replicas)
		})
	}
}

func checkHTTPHandler(t *testing.T, replicas int) {
	factory := func() (*Session, error) { return NewSession(identityModel{}, 4), nil }
	f, err := NewFleet(factory, FleetConfig{
		Replicas: replicas, MaxBatch: 4, MaxWait: time.Millisecond, QueueDepth: 32,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	srv := httptest.NewServer(NewFleetHandler(f, FleetHandlerOptions{}))
	defer srv.Close()

	// Happy path echoes the input.
	resp := postPredict(t, srv, PredictRequest{Input: []float32{1, 2, 3, 4}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("predict status = %d", resp.StatusCode)
	}
	var pr PredictResponse
	if err := json.NewDecoder(resp.Body).Decode(&pr); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(pr.Output) != 4 || pr.Output[2] != 3 {
		t.Fatalf("predict output = %v", pr.Output)
	}
	if pr.BatchSize < 1 || pr.LatencyMs < 0 {
		t.Fatalf("predict metadata = %+v", pr)
	}
	if pr.Replica < 0 || pr.Replica >= replicas {
		t.Fatalf("replica = %d out of range", pr.Replica)
	}

	// Wrong sample size is a 400.
	resp = postPredict(t, srv, PredictRequest{Input: []float32{1, 2}})
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("short input status = %d, want 400", resp.StatusCode)
	}

	// GET on /predict is a 405.
	getResp, err := http.Get(srv.URL + "/predict")
	if err != nil {
		t.Fatal(err)
	}
	getResp.Body.Close()
	if getResp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /predict status = %d, want 405", getResp.StatusCode)
	}

	// Per-request SLO rides the body; a generous budget still succeeds.
	resp = postPredict(t, srv, PredictRequest{Input: []float32{1, 2, 3, 4}, SLOMs: 5000})
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("predict with slo_ms status = %d", resp.StatusCode)
	}
	// Negative budgets are malformed.
	resp = postPredict(t, srv, PredictRequest{Input: []float32{1, 2, 3, 4}, SLOMs: -1})
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("negative slo_ms status = %d, want 400", resp.StatusCode)
	}

	// /stats decodes into the fleet snapshot with per-replica detail.
	stResp, err := http.Get(srv.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	var snap FleetSnapshot
	if err := json.NewDecoder(stResp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	stResp.Body.Close()
	if snap.Replicas != replicas || len(snap.PerReplica) != replicas || snap.Completed == 0 {
		t.Fatalf("fleet stats = %+v", snap)
	}

	// /healthz reports the sample shape and the replica count.
	hResp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var health struct {
		Status      string `json:"status"`
		SampleShape []int  `json:"sample_shape"`
		Replicas    int    `json:"replicas"`
	}
	if err := json.NewDecoder(hResp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	hResp.Body.Close()
	if health.Status != "ok" || health.Replicas != replicas || len(health.SampleShape) != 1 || health.SampleShape[0] != 4 {
		t.Fatalf("healthz = %+v", health)
	}

	// /swap without a handler is unregistered.
	swResp, err := http.Post(srv.URL+"/swap", "application/octet-stream", bytes.NewReader(nil))
	if err != nil {
		t.Fatal(err)
	}
	swResp.Body.Close()
	if swResp.StatusCode != http.StatusNotFound {
		t.Fatalf("unwired /swap status = %d, want 404", swResp.StatusCode)
	}
}

// TestHTTPBodyLimits: a body over the limit computed for its endpoint is
// refused with 413 and reaches neither the batcher nor the swap path; the
// next well-formed request is served as if nothing happened.
func TestHTTPBodyLimits(t *testing.T) {
	factory := func() (*Session, error) { return NewSession(identityModel{}, 4), nil }
	f, err := NewFleet(factory, FleetConfig{MaxBatch: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	srv := httptest.NewServer(NewFleetHandler(f, FleetHandlerOptions{
		Swap: func(body io.Reader) error {
			if _, err := io.Copy(io.Discard, body); err != nil {
				return fmt.Errorf("read checkpoint: %w", err)
			}
			return f.Swap(nil)
		},
	}))
	defer srv.Close()
	post := func(path string, body []byte) int {
		t.Helper()
		resp, err := http.Post(srv.URL+path, "application/octet-stream", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}

	// Each body is one byte past its limit, so the server has consumed
	// everything the client sent by the time it refuses.
	big, _ := json.Marshal(PredictRequest{Input: make([]float32, 4096)})
	if got := post("/predict", big[:4*jsonFloatBytes+predictBodySlack+1]); got != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized /predict status = %d, want 413", got)
	}
	// identityModel reports no weight bytes: the swap limit is the slack.
	if got := post("/swap", make([]byte, swapBodySlack+1)); got != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized /swap status = %d, want 413", got)
	}
	if snap := f.Stats(); snap.Accepted != 0 || snap.Swaps != 0 {
		t.Fatalf("oversized bodies reached the fleet: accepted=%d swaps=%d", snap.Accepted, snap.Swaps)
	}

	ok, _ := json.Marshal(PredictRequest{Input: []float32{1, 2, 3, 4}})
	if got := post("/predict", ok); got != http.StatusOK {
		t.Fatalf("well-formed /predict after a refusal: status = %d", got)
	}
	if got := post("/swap", make([]byte, swapBodySlack)); got != http.StatusOK {
		t.Fatalf("at-limit /swap after a refusal: status = %d", got)
	}
	if snap := f.Stats(); snap.Completed != 1 || snap.Swaps != 1 {
		t.Fatalf("after the well-formed requests: completed=%d swaps=%d, want 1 and 1", snap.Completed, snap.Swaps)
	}
}

// TestHTTPFleetSwapEndpoint drives the full wire-level hot-swap: POST a
// serialized checkpoint, watch outputs flip, bad bodies bounce with the
// old weights intact.
func TestHTTPFleetSwapEndpoint(t *testing.T) {
	ckpt, trained, shape := trainedCheckpoint(t, 31)
	factory, _ := twinFleetFactory(t, "mlp", 99)
	f, err := NewFleet(factory, FleetConfig{
		Replicas: 2, MaxBatch: 4, MaxWait: time.Millisecond, QueueDepth: 32,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	srv := httptest.NewServer(NewFleetHandler(f, FleetHandlerOptions{
		Swap: func(body io.Reader) error {
			return f.Swap(func(primary *Session) error {
				_, err := graph.LoadCheckpoint(body, primary.Model().(*graph.Network))
				return err
			})
		},
	}))
	defer srv.Close()

	// A garbage body aborts the swap; serving continues.
	resp, err := http.Post(srv.URL+"/swap", "application/octet-stream", bytes.NewReader([]byte("not a checkpoint")))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("garbage swap status = %d, want 400", resp.StatusCode)
	}

	// The real checkpoint swaps cleanly.
	resp, err = http.Post(srv.URL+"/swap", "application/octet-stream", bytes.NewReader(ckpt))
	if err != nil {
		t.Fatal(err)
	}
	var sw SwapResponse
	if err := json.NewDecoder(resp.Body).Decode(&sw); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || sw.Status != "ok" || sw.Swaps != 1 {
		t.Fatalf("swap response = %d %+v", resp.StatusCode, sw)
	}

	// Post-swap predictions reflect the trained weights (tolerance-free
	// comparisons live in fleet_swap_test.go; here we just check the flip
	// happened over the wire).
	x := tensor.RandNormal(tensor.NewRNG(41), 0, 1, shape...)
	want := trained.Infer(x.Reshape(append([]int{1}, shape...)...)).Data()
	presp := postPredict(t, srv, PredictRequest{Input: append([]float32(nil), x.Data()...)})
	var pr PredictResponse
	if err := json.NewDecoder(presp.Body).Decode(&pr); err != nil {
		t.Fatal(err)
	}
	presp.Body.Close()
	diff := 0.0
	for i := range want {
		d := float64(pr.Output[i] - want[i])
		if d < 0 {
			d = -d
		}
		if d > diff {
			diff = d
		}
	}
	if diff > 1e-4 {
		t.Fatalf("post-swap HTTP output diverges from checkpoint by %g", diff)
	}
}

// fleetModelsSmoke keeps the fleet path exercised against every serve
// twin, not just the mlp (shape plumbing, embedding inputs).
func TestFleetAllTwins(t *testing.T) {
	for _, name := range models.ServeTwinNames() {
		t.Run(name, func(t *testing.T) {
			factory, shape := twinFleetFactory(t, name, 3)
			f, err := NewFleet(factory, FleetConfig{
				Replicas: 2, MaxBatch: 4, MaxWait: time.Millisecond, QueueDepth: 16,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			x := tensor.New(shape...)
			res, err := f.Predict(x)
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Output) == 0 {
				t.Fatal("empty output")
			}
		})
	}
}
