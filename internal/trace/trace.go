// Package trace provides the nvprof-style timeline tooling of the paper's
// analysis pipeline (Figure 3): capture of per-kernel execution records
// from the simulator, gap analysis, and CSV/JSON export of the ".nvvp
// file" equivalent that the toolchain merges with framework-level
// measurements. Real runs are timed by the live profiler (internal/prof),
// which writes its own trace files.
package trace

import (
	"encoding/json"
	"fmt"
	"io"

	"tbd/internal/sim"
)

// Timeline is an ordered sequence of kernel executions.
type Timeline struct {
	Events []sim.Event
}

// New wraps captured events as a timeline.
func New(events []sim.Event) *Timeline { return &Timeline{Events: events} }

// Gap is an idle interval between consecutive kernels.
type Gap struct {
	AfterKernel string
	StartSec    float64
	DurSec      float64
}

// Gaps returns every idle interval longer than minSec, the signature of
// host-side stalls (sync points, launch starvation).
func (t *Timeline) Gaps(minSec float64) []Gap {
	var gaps []Gap
	for i := 1; i < len(t.Events); i++ {
		prevEnd := t.Events[i-1].StartSec + t.Events[i-1].DurSec
		if idle := t.Events[i].StartSec - prevEnd; idle > minSec {
			gaps = append(gaps, Gap{AfterKernel: t.Events[i-1].Name, StartSec: prevEnd, DurSec: idle})
		}
	}
	return gaps
}

// TotalGapTime sums all idle time between kernels.
func (t *Timeline) TotalGapTime() float64 {
	var s float64
	for _, g := range t.Gaps(0) {
		s += g.DurSec
	}
	return s
}

// WriteCSV renders the timeline as nvprof-style CSV.
func (t *Timeline) WriteCSV(w io.Writer) error {
	if _, err := fmt.Fprintln(w, "start_s,duration_s,name,class,flops,sync"); err != nil {
		return err
	}
	for _, e := range t.Events {
		if _, err := fmt.Fprintf(w, "%.9f,%.9f,%q,%s,%.0f,%v\n",
			e.StartSec, e.DurSec, e.Name, e.Class, e.FLOPs, e.Sync); err != nil {
			return err
		}
	}
	return nil
}

// WriteJSON renders the timeline as a JSON array.
func (t *Timeline) WriteJSON(w io.Writer) error {
	type rec struct {
		Start float64 `json:"start_s"`
		Dur   float64 `json:"duration_s"`
		Name  string  `json:"name"`
		Class string  `json:"class"`
		FLOPs float64 `json:"flops"`
		Sync  bool    `json:"sync,omitempty"`
	}
	recs := make([]rec, len(t.Events))
	for i, e := range t.Events {
		recs[i] = rec{Start: e.StartSec, Dur: e.DurSec, Name: e.Name, Class: e.Class.String(), FLOPs: e.FLOPs, Sync: e.Sync}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(recs)
}
