package serve

import (
	"encoding/json"
	"net/http"
)

// PredictRequest is the JSON body of POST /predict: one flat sample in
// row-major order (the daemon publishes the expected shape on /healthz).
type PredictRequest struct {
	Input []float32 `json:"input"`
	// SLOMs is this request's latency budget in milliseconds (0 inherits
	// the fleet default). A request whose budget cannot be met is shed
	// with 503.
	SLOMs float64 `json:"slo_ms,omitempty"`
}

// PredictResponse is the JSON reply to POST /predict.
type PredictResponse struct {
	Output    []float32 `json:"output"`
	LatencyMs float64   `json:"latency_ms"`
	BatchSize int       `json:"batch_size"`
	// Replica is the replica that served the request.
	Replica int `json:"replica"`
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	_ = enc.Encode(v)
}
