package trace

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"

	"tbd/internal/device"
	"tbd/internal/kernels"
	"tbd/internal/sim"
)

func capture(t *testing.T, ops []*kernels.Op, batch int) (*Timeline, sim.Result) {
	t.Helper()
	cfg := sim.Config{
		GPU:               device.QuadroP4000,
		LaunchOverheadSec: 8e-6,
		SyncOverheadSec:   150e-6,
		IterOverheadSec:   1e-3,
	}
	stream := kernels.IterationKernels(ops, batch, kernels.StyleTF)
	res, events := sim.ReplayWithTrace(stream, batch, cfg)
	return New(events), res
}

func lstmOps() []*kernels.Op {
	return []*kernels.Op{{Name: "lstm", Kind: kernels.OpLSTMSeq, T: 10, Input: 256, Hidden: 256}}
}

func convOps() []*kernels.Op {
	return []*kernels.Op{
		{Name: "conv", Kind: kernels.OpConv2D, InC: 32, OutC: 32, H: 28, W: 28, K: 3, Stride: 1, Pad: 1},
		{Name: "bn", Kind: kernels.OpBatchNorm, Channels: 32, H: 28, W: 28},
	}
}

// busy sums a timeline's kernel durations.
func busy(tl *Timeline) float64 {
	var s float64
	for _, e := range tl.Events {
		s += e.DurSec
	}
	return s
}

func TestTimelineConsistentWithResult(t *testing.T) {
	tl, res := capture(t, convOps(), 16)
	if len(tl.Events) != res.KernelCount {
		t.Fatalf("events %d != kernel count %d", len(tl.Events), res.KernelCount)
	}
	if math.Abs(busy(tl)-res.GPUBusySec) > 1e-9 {
		t.Fatalf("timeline busy %.9f != result busy %.9f", busy(tl), res.GPUBusySec)
	}
	if first := tl.Events[0]; first.StartSec < 0 || first.DurSec <= 0 {
		t.Fatalf("bad first event %+v", first)
	}
}

func TestEventsAreOrderedAndNonOverlapping(t *testing.T) {
	tl, _ := capture(t, convOps(), 8)
	for i := 1; i < len(tl.Events); i++ {
		prevEnd := tl.Events[i-1].StartSec + tl.Events[i-1].DurSec
		if tl.Events[i].StartSec < prevEnd-1e-12 {
			t.Fatalf("event %d overlaps previous", i)
		}
	}
}

func TestLSTMTimelineHasSyncGaps(t *testing.T) {
	lt, _ := capture(t, lstmOps(), 16)
	ct, _ := capture(t, convOps(), 16)
	lg := lt.TotalGapTime() / busy(lt)
	cg := ct.TotalGapTime() / busy(ct)
	if lg <= cg {
		t.Fatalf("lstm relative gap %.3f should exceed conv %.3f", lg, cg)
	}
	gaps := lt.Gaps(50e-6)
	if len(gaps) == 0 {
		t.Fatal("lstm timeline shows no sync gaps")
	}
}

func TestCSVExport(t *testing.T) {
	tl, _ := capture(t, convOps(), 4)
	var buf bytes.Buffer
	if err := tl.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != len(tl.Events)+1 {
		t.Fatalf("csv lines %d, want %d", len(lines), len(tl.Events)+1)
	}
	if !strings.HasPrefix(lines[0], "start_s,") {
		t.Fatalf("missing header: %q", lines[0])
	}
	if !strings.Contains(buf.String(), "implicit_convolve") {
		t.Fatal("csv missing conv kernel")
	}
}

func TestJSONExportRoundTrips(t *testing.T) {
	tl, _ := capture(t, convOps(), 4)
	var buf bytes.Buffer
	if err := tl.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var recs []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &recs); err != nil {
		t.Fatalf("invalid json: %v", err)
	}
	if len(recs) != len(tl.Events) {
		t.Fatalf("json records %d, want %d", len(recs), len(tl.Events))
	}
}

func TestEmptyTimeline(t *testing.T) {
	tl := New(nil)
	if len(tl.Gaps(0)) != 0 || tl.TotalGapTime() != 0 {
		t.Fatal("empty timeline must have no gaps")
	}
}
