package prof

import (
	"cmp"
	"encoding/json"
	"fmt"
	"io"
	"slices"
	"strings"
	"time"

	"tbd/internal/report"
)

// KernelStat is one aggregated stats row: every span with the same
// (name, category) pair folded together, mirroring the per-kernel
// breakdowns of the paper's Figures 5-7.
type KernelStat struct {
	Name    string  `json:"name"`
	Cat     string  `json:"cat"`
	Count   uint64  `json:"count"`
	TotalMs float64 `json:"total_ms"`
	// SelfMs is the rows' time their child spans do not cover (from the
	// span tree, over retained spans). Unlike TotalMs it does not nest.
	SelfMs float64 `json:"self_ms"`
	MeanUs float64 `json:"mean_us"`
	// PctWall is the row's total time as a share of the capture wall
	// time. Rows nest (a phase span contains its layer spans contains its
	// GEMM spans), so shares sum past 100% across categories but are
	// comparable within one.
	PctWall float64 `json:"pct_wall"`
	// GFLOPS is achieved throughput over the row's spans (0 when the
	// instrumentation attached no FLOP count).
	GFLOPS   float64 `json:"gflops"`
	Bytes    int64   `json:"bytes"`
	PoolGets uint64  `json:"pool_gets"`
	PoolHits uint64  `json:"pool_hits"`
}

// Snapshot is a point-in-time export of the capture: aggregated kernel
// stats (sorted by total time, descending), the time budget, the memory
// watermark, and timeline accounting. It is the JSON body of the
// /debug/prof endpoint.
type Snapshot struct {
	Enabled bool    `json:"enabled"`
	WallSec float64 `json:"wall_sec"`
	// KernelTier is the GEMM micro-kernel tier (ref/sse/avx2) the engine
	// dispatched to, so the per-kernel GFLOP/s rows are attributable.
	KernelTier string       `json:"kernel_tier,omitempty"`
	Kernels    []KernelStat `json:"kernels"`
	// Σ SelfMs + UnattributedMs − ConcurrentMs = wall (see Tree), unless
	// spans were dropped. Children of spans still open count as roots.
	UnattributedMs float64      `json:"unattributed_ms"`
	ConcurrentMs   float64      `json:"concurrent_ms"`
	Mem            MemWatermark `json:"memory_watermark"`
	Events         int          `json:"events"`
	DroppedEvents  uint64       `json:"dropped_events"`
}

// wallLocked is the capture's wall time so far: up to Disable, or up to
// now while it runs.
//
//tbd:locked-by-caller
func wallLocked() time.Duration {
	switch {
	case collector.epoch.IsZero():
		return 0
	case collector.stopped.IsZero():
		return time.Since(collector.epoch)
	}
	return collector.stopped.Sub(collector.epoch)
}

// Stats aggregates the capture so far. Safe to call while profiling is
// running (the /debug/prof endpoint does); percentages then use the
// elapsed wall time.
func Stats() Snapshot {
	collector.mu.Lock()
	wall := wallLocked()
	recs := append([]Record(nil), collector.recs...)
	snap := Snapshot{
		Enabled:       enabled.Load(),
		WallSec:       wall.Seconds(),
		KernelTier:    KernelTier(),
		Mem:           collector.mem,
		Events:        len(recs),
		DroppedEvents: collector.dropped,
	}
	snap.Kernels = make([]KernelStat, 0, len(collector.agg))
	for k, a := range collector.agg {
		ks := KernelStat{
			Name:     k.name,
			Cat:      k.cat.String(),
			Count:    a.count,
			TotalMs:  1e3 * a.total.Seconds(),
			Bytes:    a.bytes,
			PoolGets: a.poolGets,
			PoolHits: a.poolHits,
			MeanUs:   1e6 * a.total.Seconds() / float64(a.count), // a row exists once a span ended
		}
		if wall > 0 {
			ks.PctWall = 100 * a.total.Seconds() / wall.Seconds()
		}
		if sec := a.total.Seconds(); sec > 0 && a.flops > 0 {
			ks.GFLOPS = a.flops / sec / 1e9
		}
		snap.Kernels = append(snap.Kernels, ks)
	}
	collector.mu.Unlock()

	// Children of a span still open (or dropped) count as roots. Live IDs
	// are unique and below their children's, so the tree builds.
	recorded := make(map[uint64]bool, len(recs))
	for _, r := range recs {
		recorded[r.ID] = true
	}
	for i := range recs {
		if !recorded[recs[i].Parent] {
			recs[i].Parent = 0
		}
	}
	if tree, err := BuildTree(recs, wall); err == nil {
		self := map[aggKey]time.Duration{}
		for _, n := range tree.Nodes {
			self[aggKey{name: n.Name, cat: n.Cat}] += n.Self
		}
		for i := range snap.Kernels {
			k := &snap.Kernels[i]
			k.SelfMs = 1e3 * self[aggKey{name: k.Name, cat: catByName[k.Cat]}].Seconds()
		}
		snap.UnattributedMs = 1e3 * tree.Unattributed.Seconds()
		snap.ConcurrentMs = 1e3 * tree.Concurrent.Seconds()
	}
	slices.SortFunc(snap.Kernels, func(a, b KernelStat) int {
		return cmp.Or(cmp.Compare(b.TotalMs, a.TotalMs), strings.Compare(a.Name, b.Name), strings.Compare(a.Cat, b.Cat))
	})
	return snap
}

// Table renders the snapshot's kernel rows as a report table (aligned
// ASCII, markdown, CSV, or JSON via the report package's writers), then
// the budget rows — unattributed, and concurrent (negated) where it is
// non-zero — so a full self column sums to the wall. topK <= 0 keeps
// every kernel row.
func (s Snapshot) Table(topK int) *report.Table {
	title := "Per-kernel profile (live engine)"
	if s.KernelTier != "" {
		title = "Per-kernel profile (live engine, gemm tier " + s.KernelTier + ")"
	}
	if s.DroppedEvents > 0 {
		title += fmt.Sprintf(" — %d spans dropped past the record cap: self time covers the rest, and the budget does not close", s.DroppedEvents)
	}
	t := &report.Table{
		Title:   title,
		Columns: []string{"Kernel", "Cat", "Count", "Total ms", "Self ms", "Mean µs", "% wall", "GFLOP/s", "Pool gets", "Pool hits"},
	}
	rows := s.Kernels
	if topK > 0 && len(rows) > topK {
		rows = rows[:topK]
	}
	for _, k := range rows {
		t.AddRow(k.Name, k.Cat, k.Count, k.TotalMs, k.SelfMs, k.MeanUs, k.PctWall, k.GFLOPS, k.PoolGets, k.PoolHits)
	}
	t.AddRow("unattributed", "-", "-", "-", s.UnattributedMs, "-", "-", "-", "-", "-")
	if s.ConcurrentMs > 0 {
		t.AddRow("concurrent", "-", "-", "-", -s.ConcurrentMs, "-", "-", "-", "-", "-")
	}
	return t
}

// WriteJSON writes the full snapshot as indented JSON.
func (s Snapshot) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}
