package prof

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"time"
)

// The one trace file is Chrome trace-event JSON, which chrome://tracing
// and Perfetto open (the open .nvvp): one "X" event per span, ts and dur
// in µs, pid = rank, args carrying span, parent, bytes, flops and CPU time, and a
// flow arrow into each comm span from its parent. The run's Meta, memory
// watermark, wall times, dropped count and format version ride in
// otherData, which viewers ignore.

// traceVersion is the otherData format version; ReadTrace refuses others.
const traceVersion = 2

// The reader's bounds come from the largest capture a recorder writes (a
// distributed rank: 1<<20 spans). A span is one event plus at most one
// flow pair, and no recorder writes near 512 bytes a span. maxTraceUs
// (31 years) keeps a tree's nanosecond sums from overflowing. A frame
// that carries a trace (a distributed rank's result) is bounded by
// MaxTraceBytes too.
const (
	maxTraceEvents = 3 << 20
	MaxTraceBytes  = 512 << 20
	maxTraceUs     = 1e15
)

// The reader's named errors; BuildTree names the edge errors.
var (
	ErrTraceTooLarge = errors.New("prof: trace exceeds the reader's bound")
	ErrTraceTime     = errors.New("prof: trace time out of range")
	ErrTraceVersion  = errors.New("prof: unknown trace format version")
	ErrTraceDropped  = errors.New("prof: trace dropped spans")
)

// Meta pins the configuration a trace was recorded under, so a replay
// knows the baseline it perturbs. Rank is the recording process's rank,
// which Current keys its capture by.
type Meta struct {
	Model         string  `json:"model,omitempty"`
	Steps         int     `json:"steps,omitempty"`
	Batch         int     `json:"batch,omitempty"`
	Parallel      int     `json:"parallel,omitempty"`
	KernelTier    string  `json:"kernel_tier,omitempty"`
	Workers       int     `json:"workers,omitempty"`
	Strategy      string  `json:"strategy,omitempty"`
	Compression   string  `json:"compression,omitempty"`
	BandwidthMBps float64 `json:"bandwidth_mbps,omitempty"`
	Rank          int     `json:"rank,omitempty"`
	// CPUs is the recording host's logical CPU count, which every
	// process of a one-host cluster shared.
	CPUs int `json:"cpus,omitempty"`
}

// Capture is one process's recording: its rank (the file's pid), the
// wall time it ran over, and its span records.
type Capture struct {
	Rank    int
	Wall    time.Duration
	Records []Record
}

// Trace is what one trace file holds: every rank's capture of one run,
// with the run's memory watermark (ranks are separate processes, so a
// cluster's footprints add) and the spans that fell past the record cap.
// A trace with drops can be written and viewed but not replayed.
type Trace struct {
	Meta    Meta
	Mem     MemWatermark
	Dropped uint64
	Ranks   []Capture
}

// Current snapshots the live capture as a one-rank trace. meta's kernel
// tier defaults to the engine's.
func Current(meta Meta) *Trace {
	if meta.KernelTier == "" {
		meta.KernelTier = KernelTier()
	}
	collector.mu.Lock()
	defer collector.mu.Unlock()
	return &Trace{Meta: meta, Mem: collector.mem, Dropped: collector.dropped, Ranks: []Capture{
		{Rank: meta.Rank, Wall: wallLocked(), Records: append([]Record(nil), collector.recs...)},
	}}
}

// Wall is the slowest rank's wall time.
func (t *Trace) Wall() time.Duration {
	var w time.Duration
	for _, c := range t.Ranks {
		w = max(w, c.Wall)
	}
	return w
}

// Spans counts the records across ranks.
func (t *Trace) Spans() int {
	n := 0
	for _, c := range t.Ranks {
		n += len(c.Records)
	}
	return n
}

// Merge combines per-rank traces into one cluster trace. Captures stay
// keyed by rank (the file's pid), so span IDs need no renumbering. Meta
// comes from the first trace with Rank cleared, and the watermarks add,
// since ranks are separate processes.
func Merge(traces ...*Trace) (*Trace, error) {
	if len(traces) == 0 {
		return nil, fmt.Errorf("prof: nothing to merge")
	}
	out := &Trace{Meta: traces[0].Meta}
	out.Meta.Rank = 0
	for _, tr := range traces {
		if tr == nil {
			return nil, fmt.Errorf("prof: merge input missing a rank trace")
		}
		out.Ranks = append(out.Ranks, tr.Ranks...)
		out.Dropped += tr.Dropped
		out.Mem.Weights += tr.Mem.Weights
		out.Mem.WeightGradients += tr.Mem.WeightGradients
		out.Mem.FeatureMaps += tr.Mem.FeatureMaps
		out.Mem.Workspace += tr.Mem.Workspace
		out.Mem.Dynamic += tr.Mem.Dynamic
		out.Mem.PeakTotal += tr.Mem.PeakTotal
	}
	out.Mem.Samples = traces[0].Mem.Samples
	return out, nil
}

// Trees builds one tree per rank, in Ranks order. A trace that dropped
// spans is refused with ErrTraceDropped: its parents are missing and its
// budget cannot close. So is one that lists a rank twice.
func (t *Trace) Trees() ([]*Tree, error) {
	if t.Dropped > 0 {
		return nil, fmt.Errorf("%w: %d fell past the record cap — re-record with a larger cap or fewer steps", ErrTraceDropped, t.Dropped)
	}
	trees := make([]*Tree, len(t.Ranks))
	seen := map[int]bool{}
	for i, c := range t.Ranks {
		if seen[c.Rank] || c.Rank < 0 {
			return nil, fmt.Errorf("prof: trace lists rank %d twice or below 0", c.Rank)
		}
		seen[c.Rank] = true
		tree, err := BuildTree(c.Records, c.Wall)
		if err != nil {
			return nil, fmt.Errorf("rank %d: %w", c.Rank, err)
		}
		trees[i] = tree
	}
	return trees, nil
}

type otherData struct {
	Version int          `json:"version"`
	Meta    Meta         `json:"meta"`
	Mem     MemWatermark `json:"mem"`
	WallUs  float64      `json:"wall_us"`
	Dropped uint64       `json:"dropped"`
	Ranks   []rankWall   `json:"ranks"`
}

type rankWall struct {
	Rank   int     `json:"rank"`
	WallUs float64 `json:"wall_us"`
}

// chromeEvent is a span ("X") or one end of a flow arrow ("s", and "f"
// bound to the enclosing slice by bp "e").
type chromeEvent struct {
	Name string    `json:"name"`
	Cat  string    `json:"cat"`
	Ph   string    `json:"ph"`
	TS   float64   `json:"ts"`
	Dur  float64   `json:"dur,omitempty"`
	PID  int       `json:"pid"`
	TID  int       `json:"tid"`
	ID   uint64    `json:"id,omitempty"`
	BP   string    `json:"bp,omitempty"`
	Args *spanArgs `json:"args,omitempty"`
}

type spanArgs struct {
	Span   uint64  `json:"span"`
	Parent uint64  `json:"parent,omitempty"`
	Bytes  int64   `json:"bytes,omitempty"`
	FLOPs  float64 `json:"flops,omitempty"`
	CPU    float64 `json:"cpu_us,omitempty"`
}

func us(d time.Duration) float64 { return float64(d) / 1e3 }

// Write renders the trace as Chrome trace-event JSON, one event a line.
func (t *Trace) Write(w io.Writer) error {
	od := otherData{Version: traceVersion, Meta: t.Meta, Mem: t.Mem, WallUs: us(t.Wall()), Dropped: t.Dropped}
	for _, c := range t.Ranks {
		od.Ranks = append(od.Ranks, rankWall{c.Rank, us(c.Wall)})
	}
	bw := bufio.NewWriter(w)
	var err error
	put := func(prefix string, v any) {
		var line []byte
		if err == nil {
			if line, err = json.Marshal(v); err == nil {
				bw.WriteString(prefix)
				bw.Write(line)
			}
		}
	}
	put(`{"otherData":`, od)
	bw.WriteString(",\n\"traceEvents\":[")
	sep := "\n"
	var flow uint64
	for _, c := range t.Ranks {
		startOf := make(map[uint64]time.Duration, len(c.Records))
		for _, r := range c.Records {
			startOf[r.ID] = r.Start
		}
		for _, r := range c.Records {
			put(sep, chromeEvent{Name: r.Name, Cat: r.Cat.String(), Ph: "X", TS: us(r.Start), Dur: us(r.Dur), PID: c.Rank,
				Args: &spanArgs{r.ID, r.Parent, r.Bytes, r.FLOPs, us(r.CPU)}})
			sep = ",\n"
			if ps, ok := startOf[r.Parent]; ok && r.Cat == CatComm {
				flow++
				put(sep, chromeEvent{Name: "dep", Cat: "flow", Ph: "s", TS: us(ps), PID: c.Rank, ID: flow})
				put(sep, chromeEvent{Name: "dep", Cat: "flow", Ph: "f", TS: us(r.Start), PID: c.Rank, ID: flow, BP: "e"})
			}
		}
	}
	bw.WriteString("\n]}\n")
	if err != nil {
		return err
	}
	return bw.Flush()
}

// WriteFile writes the trace to a new file at path.
func (t *Trace) WriteFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := t.Write(f); err != nil {
		_ = f.Close() // the write error is the one worth reporting
		return err
	}
	return f.Close()
}

// ReadTraceFile reads and validates the trace at path.
func ReadTraceFile(path string) (*Trace, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	t, err := ReadTrace(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return t, nil
}

// ReadTrace parses a trace Write wrote, skipping events that are not
// spans. Past its byte or event bound, it refuses the input; so it does,
// each with a named error, a time that is negative or out of range, an
// unknown format version, dropped spans, and every edge BuildTree
// refuses.
func ReadTrace(r io.Reader) (*Trace, error) {
	return readTrace(r, MaxTraceBytes, maxTraceEvents)
}

func readTrace(r io.Reader, maxBytes int64, maxEvents int) (*Trace, error) {
	var doc struct {
		OtherData   *otherData        `json:"otherData"`
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	lr := &io.LimitedReader{R: r, N: maxBytes + 1}
	err := json.NewDecoder(lr).Decode(&doc)
	switch od := doc.OtherData; {
	case lr.N <= 0:
		return nil, fmt.Errorf("%w: more than %d bytes", ErrTraceTooLarge, maxBytes)
	case err != nil:
		return nil, fmt.Errorf("prof: parse trace: %w", err)
	case len(doc.TraceEvents) > maxEvents:
		return nil, fmt.Errorf("%w: more than %d events", ErrTraceTooLarge, maxEvents)
	case od == nil || od.Version != traceVersion:
		return nil, fmt.Errorf("%w (this build reads %d) — re-record the trace", ErrTraceVersion, traceVersion)
	case od.Dropped > 0:
		return nil, fmt.Errorf("%w: %d fell past the record cap — re-record with a larger cap or fewer steps", ErrTraceDropped, od.Dropped)
	}
	spans := map[int][]Record{}
	for i, raw := range doc.TraceEvents {
		var ev chromeEvent
		if err := json.Unmarshal(raw, &ev); err != nil {
			return nil, fmt.Errorf("prof: parse trace event %d: %w", i, err)
		}
		if ev.Ph != "X" {
			continue
		}
		start, errTS := duration(ev.TS)
		dur, errDur := duration(ev.Dur)
		if err := errors.Join(errTS, errDur); err != nil {
			return nil, fmt.Errorf("event %d: %w", i, err)
		}
		cat, ok := catByName[ev.Cat]
		if !ok {
			return nil, fmt.Errorf("prof: trace event %d has unknown category %q", i, ev.Cat)
		}
		rec := Record{Name: ev.Name, Cat: cat, Start: start, Dur: dur}
		if a := ev.Args; a != nil {
			rec.ID, rec.Parent, rec.Bytes, rec.FLOPs = a.Span, a.Parent, a.Bytes, a.FLOPs
			if rec.CPU, err = duration(a.CPU); err != nil {
				return nil, fmt.Errorf("event %d cpu: %w", i, err)
			}
		}
		spans[ev.PID] = append(spans[ev.PID], rec)
	}
	t := &Trace{Meta: doc.OtherData.Meta, Mem: doc.OtherData.Mem}
	for _, rw := range doc.OtherData.Ranks {
		wall, err := duration(rw.WallUs)
		if err != nil {
			return nil, fmt.Errorf("rank %d wall: %w", rw.Rank, err)
		}
		t.Ranks = append(t.Ranks, Capture{Rank: rw.Rank, Wall: wall, Records: spans[rw.Rank]})
		delete(spans, rw.Rank)
	}
	if len(spans) > 0 {
		return nil, fmt.Errorf("prof: trace has spans on %d pids otherData does not list as ranks", len(spans))
	}
	if _, err := t.Trees(); err != nil {
		return nil, err
	}
	return t, nil
}

// duration converts a file's microseconds to whole nanoseconds. Every
// time Write emits is one, so the round trip is exact.
func duration(us float64) (time.Duration, error) {
	if !(us >= 0 && us <= maxTraceUs) {
		return 0, fmt.Errorf("%w: %g µs", ErrTraceTime, us)
	}
	return time.Duration(math.Round(us * 1e3)), nil
}

// catByName inverts Cat.String.
var catByName = func() map[string]Cat {
	m := map[string]Cat{}
	for c, name := range catNames {
		m[name] = Cat(c)
	}
	return m
}()
