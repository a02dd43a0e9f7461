package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"tbd/internal/models"
	"tbd/internal/prof"
	"tbd/internal/serve"
	"tbd/internal/tensor"
)

func TestParsePhases(t *testing.T) {
	for _, tc := range []struct {
		spec string
		want []serve.Phase // nil: the spec must be rejected
	}{
		{"200:2s,2000:500ms", []serve.Phase{{Rate: 200, Duration: 2 * time.Second}, {Rate: 2000, Duration: 500 * time.Millisecond}}},
		{" 50:1s , 0:250ms", []serve.Phase{{Rate: 50, Duration: time.Second}, {Rate: 0, Duration: 250 * time.Millisecond}}},
		{"", nil},
		{"200", nil},
		{"200:2s,", nil},
		{"-1:2s", nil},
		{"200:0s", nil},
		{"200:-2s", nil},
		{"fast:2s", nil},
		{"200:soon", nil},
	} {
		got, err := parsePhases(tc.spec)
		if tc.want == nil {
			if err == nil {
				t.Errorf("parsePhases(%q) = %v, want an error", tc.spec, got)
			}
			continue
		}
		if err != nil || !reflect.DeepEqual(got, tc.want) {
			t.Errorf("parsePhases(%q) = %v, %v; want %v", tc.spec, got, err, tc.want)
		}
	}
}

// TestPostStatusMapping pins how the load generators class a reply: the
// admission-control codes come back as the serve sentinels (so sheds are
// not tallied as errors), anything else unexpected as a plain error.
func TestPostStatusMapping(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		status, _ := strconv.Atoi(r.URL.Path[1:]) // the path is the status to answer; the loop below prints it from an int
		w.WriteHeader(status)
	}))
	defer srv.Close()
	class := func(err error) string {
		switch {
		case err == nil:
			return "ok"
		case errors.Is(err, serve.ErrOverloaded):
			return "overloaded"
		case errors.Is(err, serve.ErrDeadline):
			return "deadline"
		}
		return "error"
	}
	for _, tc := range []struct {
		status int
		want   string
	}{
		{http.StatusOK, "ok"},
		{http.StatusTooManyRequests, "overloaded"},
		{http.StatusServiceUnavailable, "deadline"},
		{http.StatusRequestEntityTooLarge, "error"},
	} {
		url := fmt.Sprintf("%s/%d", srv.URL, tc.status)
		if got := class(post(srv.Client(), url, []byte("{}"))); got != tc.want {
			t.Errorf("status %d classed as %q, want %q", tc.status, got, tc.want)
		}
	}
}

// TestLoadgenAgainstDaemonHandler is the in-process smoke: the handler
// cmdServe mounts, over a real twin, driven by both generators through
// post exactly as cmdLoadgen drives them.
func TestLoadgenAgainstDaemonHandler(t *testing.T) {
	fleet := mlpFleet(t, serve.FleetConfig{MaxBatch: 8, MaxWait: time.Millisecond, QueueDepth: 64})
	defer fleet.Close()
	srv := httptest.NewServer(newHandler(fleet))
	defer srv.Close()

	// Size the sample from /healthz, as cmdLoadgen does.
	resp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var health struct {
		SampleShape []int `json:"sample_shape"`
	}
	err = json.NewDecoder(resp.Body).Decode(&health)
	resp.Body.Close()
	if err != nil || len(health.SampleShape) != 1 {
		t.Fatalf("healthz: %+v, %v", health, err)
	}
	body, _ := json.Marshal(serve.PredictRequest{Input: make([]float32, health.SampleShape[0])})
	call := func() error { return post(srv.Client(), srv.URL+"/predict", body) }

	closed := serve.LoadGen{Concurrency: 4, Duration: 100 * time.Millisecond}.Run(func(int) error { return call() })
	if closed.Requests == 0 || closed.Errors != 0 {
		t.Fatalf("closed loop: %d ok, %d errors", closed.Requests, closed.Errors)
	}

	phases, err := parsePhases("200:100ms,1000:100ms")
	if err != nil {
		t.Fatal(err)
	}
	open := serve.OpenLoadGen{Phases: phases, Workers: 8}.Run(call)
	if open.OK == 0 || len(open.Phases) != 2 {
		t.Fatalf("open loop: ok=%d phases=%d", open.OK, len(open.Phases))
	}
	if open.Offered != open.OK+open.Shed+open.Errors+open.Dropped {
		t.Fatalf("open loop accounting: offered %d != ok %d + shed %d + errors %d + dropped %d",
			open.Offered, open.OK, open.Shed, open.Errors, open.Dropped)
	}
	if snap := fleet.Stats(); snap.Completed != closed.Requests+open.OK {
		t.Fatalf("daemon completed %d, generators saw %d + %d", snap.Completed, closed.Requests, open.OK)
	}

	// Drain is a 503 on the wire and a shed, not an error, in the tally.
	fleet.Close()
	if err := call(); !errors.Is(err, serve.ErrDeadline) {
		t.Fatalf("predict during drain: %v, want ErrDeadline", err)
	}
}

// mlpFleet serves the mlp twin the way cmdServe builds it.
func mlpFleet(t *testing.T, cfg serve.FleetConfig) *serve.Fleet {
	t.Helper()
	fleet, err := serve.NewFleet(func() (*serve.Session, error) {
		net, shape, err := models.ServeTwin("mlp", tensor.NewRNG(42))
		if err != nil {
			return nil, err
		}
		return serve.NewSession(net, shape...), nil
	}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return fleet
}

// TestTraceFileFromDaemon runs the daemon's handler with the profiler on,
// as -trace does, writes the trace the way cmdServe does on shutdown, and
// reads the file back with the trace reader: one serve.rK.batch span per
// flushed batch from both replicas, each showing the batch's input bytes.
func TestTraceFileFromDaemon(t *testing.T) {
	prof.Enable()
	defer prof.Disable()
	const maxBatch = 8
	fleet := mlpFleet(t, serve.FleetConfig{Replicas: 2, MaxBatch: maxBatch, MaxWait: time.Millisecond, QueueDepth: 64})
	defer fleet.Close()
	srv := httptest.NewServer(newHandler(fleet))
	defer srv.Close()

	_, shape, err := models.ServeTwin("mlp", tensor.NewRNG(42))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := json.Marshal(serve.PredictRequest{Input: make([]float32, shape[0])})
	res := serve.LoadGen{Concurrency: 8, Duration: 100 * time.Millisecond}.Run(func(int) error {
		return post(srv.Client(), srv.URL+"/predict", body)
	})
	if res.Requests == 0 || res.Errors != 0 {
		t.Fatalf("load: %d ok, %d errors", res.Requests, res.Errors)
	}
	fleet.Close()

	path := filepath.Join(t.TempDir(), "trace.json")
	var out bytes.Buffer
	if err := report(&out, fleet, false, path); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), path) {
		t.Fatalf("report does not name the trace file:\n%s", out.String())
	}
	tr, err := prof.ReadTraceFile(path)
	if err != nil {
		t.Fatalf("trace file does not read back (nothing should drop below the default record cap): %v", err)
	}
	rowBytes := 4 * int64(shape[0])
	perReplica := map[string]uint64{}
	for _, r := range tr.Ranks[0].Records {
		if r.Cat != prof.CatServe {
			continue
		}
		if r.Bytes <= 0 || r.Bytes%rowBytes != 0 || r.Bytes/rowBytes > maxBatch {
			t.Fatalf("%s span shows %d bytes, want 1 to %d rows of %d", r.Name, r.Bytes, maxBatch, rowBytes)
		}
		perReplica[r.Name]++
	}
	for i, rs := range fleet.Stats().PerReplica {
		if name := fmt.Sprintf("serve.r%d.batch", i); perReplica[name] != rs.Batches {
			t.Errorf("%s: %d spans, replica flushed %d batches", name, perReplica[name], rs.Batches)
		}
	}
	if len(perReplica) != 2 {
		t.Fatalf("batch spans from %d replicas, want 2: %v", len(perReplica), perReplica)
	}
}
