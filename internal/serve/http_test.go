package serve

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"tbd/internal/prof"
)

// TestHTTPDebugProf exercises the live-profiler endpoint: with capture on,
// a served batch must surface as a serve-category row in the snapshot.
func TestHTTPDebugProf(t *testing.T) {
	svc := oneReplica(t, NewSession(identityModel{}, 4), FleetConfig{MaxBatch: 4})
	defer svc.Close()
	srv := httptest.NewServer(NewFleetHandler(svc, FleetHandlerOptions{}))
	defer srv.Close()

	prof.Enable()
	defer prof.Disable()
	resp := postPredict(t, srv, PredictRequest{Input: []float32{1, 2, 3, 4}})
	resp.Body.Close()

	pResp, err := http.Get(srv.URL + "/debug/prof")
	if err != nil {
		t.Fatal(err)
	}
	var snap prof.Snapshot
	if err := json.NewDecoder(pResp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	pResp.Body.Close()
	if !snap.Enabled {
		t.Fatalf("snapshot reports disabled: %+v", snap)
	}
	found := false
	for _, k := range snap.Kernels {
		if k.Name == "serve.r0.batch" && k.Cat == "serve" && k.Count >= 1 {
			found = true
		}
	}
	if !found {
		t.Fatalf("no serve.r0.batch row in /debug/prof: %+v", snap.Kernels)
	}
}

func TestHTTPHandlerShutdown(t *testing.T) {
	svc := oneReplica(t, NewSession(identityModel{}, 4), FleetConfig{MaxBatch: 4})
	srv := httptest.NewServer(NewFleetHandler(svc, FleetHandlerOptions{}))
	defer srv.Close()

	svc.Close()
	resp := postPredict(t, srv, PredictRequest{Input: []float32{1, 2, 3, 4}})
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("predict during shutdown status = %d, want 503", resp.StatusCode)
	}
}
