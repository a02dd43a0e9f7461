package trace

import (
	"encoding/json"
	"io"
	"os"

	"tbd/internal/prof"
)

// ChromeWriter accumulates Chrome trace-event ("catapult") complete
// events and renders the single-object JSON that chrome://tracing and
// Perfetto load — the closest open equivalent of opening an .nvvp file in
// the NVIDIA Visual Profiler. WriteProfChrome drives it with the live
// profiler's span records, so a training step, a distributed rank and a
// serving batch all open in the same viewer.
type ChromeWriter struct {
	events []chromeEvent
}

// chromeEvent is one trace_event record. Field order is part of the
// golden-file contract in chrome_test.go; the optional tail fields
// (id, bp, args) serialize only for events that carry dependence
// information or bytes, so plain events emit the legacy bytes.
type chromeEvent struct {
	Name string  `json:"name"`
	Cat  string  `json:"cat"`
	Ph   string  `json:"ph"`
	TS   float64 `json:"ts"`            // microseconds
	Dur  float64 `json:"dur,omitempty"` // microseconds (complete events)
	PID  int     `json:"pid"`
	TID  int     `json:"tid"`
	// ID links the two halves of a flow arrow ("ph":"s"/"f").
	ID uint64 `json:"id,omitempty"`
	// BP is "e" on flow-finish events: bind to the enclosing slice.
	BP   string      `json:"bp,omitempty"`
	Args *chromeArgs `json:"args,omitempty"`
}

// chromeArgs carries the span's dependence edge and bytes moved into the
// viewer's event-detail pane.
type chromeArgs struct {
	Span   uint64 `json:"span,omitempty"`
	Parent uint64 `json:"parent,omitempty"`
	Bytes  int64  `json:"bytes,omitempty"`
}

// Complete appends one complete ("ph":"X") event. Times are in seconds;
// the writer converts to the format's microseconds.
func (cw *ChromeWriter) Complete(name, cat string, startSec, durSec float64, pid, tid int) {
	cw.events = append(cw.events, chromeEvent{
		Name: name, Cat: cat, Ph: "X",
		TS: startSec * 1e6, Dur: durSec * 1e6,
		PID: pid, TID: tid,
	})
}

// CompleteSpan appends a complete event annotated with its dependence
// edge (the live profiler's span id and parent id) and the bytes the span
// moved, shown in the viewer's args pane. With id and bytes both 0 it is
// a plain Complete.
func (cw *ChromeWriter) CompleteSpan(name, cat string, startSec, durSec float64, pid, tid int, id, parent uint64, bytes int64) {
	cw.Complete(name, cat, startSec, durSec, pid, tid)
	if id != 0 || bytes != 0 {
		cw.events[len(cw.events)-1].Args = &chromeArgs{Span: id, Parent: parent, Bytes: bytes}
	}
}

// Flow appends a flow arrow from (fromSec) to (toSec) on one track: a
// flow-start ("s") event and a flow-finish ("f") event bound to the
// enclosing slice, sharing the given flow id. Viewers draw it as an
// arrow between the two slices containing the endpoints.
func (cw *ChromeWriter) Flow(name, cat string, fromSec, toSec float64, pid, tid int, id uint64) {
	cw.events = append(cw.events,
		chromeEvent{Name: name, Cat: cat, Ph: "s", TS: fromSec * 1e6, PID: pid, TID: tid, ID: id},
		chromeEvent{Name: name, Cat: cat, Ph: "f", TS: toSec * 1e6, PID: pid, TID: tid, ID: id, BP: "e"},
	)
}

// Len reports the number of buffered events.
func (cw *ChromeWriter) Len() int { return len(cw.events) }

// Write renders {"traceEvents": [...]} to w. An empty writer emits an
// empty array, not null — viewers reject the latter.
func (cw *ChromeWriter) Write(w io.Writer) error {
	events := cw.events
	if events == nil {
		events = []chromeEvent{}
	}
	enc := json.NewEncoder(w)
	return enc.Encode(struct {
		TraceEvents []chromeEvent `json:"traceEvents"`
	}{events})
}

// WriteProfChrome renders live-profiler span records (a real training or
// serving run captured by internal/prof) as a Chrome trace. Spans from
// one goroutine nest by time containment exactly as the viewer expects;
// concurrent trainers interleave on the single track. Each slice's args
// carry its span/parent pair and its bytes (a serving batch's input
// bytes, so its size stays readable), and communication spans
// additionally get flow arrows from their parent phase — the cross-rank
// dependence the cluster traces exist to show.
func WriteProfChrome(w io.Writer, recs []prof.Record) error {
	var cw ChromeWriter
	startOf := make(map[uint64]float64, len(recs))
	for _, r := range recs {
		if r.ID != 0 {
			startOf[r.ID] = r.Start.Seconds()
		}
	}
	for _, r := range recs {
		cw.CompleteSpan(r.Name, r.Cat.String(), r.Start.Seconds(), r.Dur.Seconds(), 0, 0, r.ID, r.Parent, r.Bytes)
		if r.Cat == prof.CatComm && r.Parent != 0 {
			if ps, ok := startOf[r.Parent]; ok {
				cw.Flow("dep", "flow", ps, r.Start.Seconds(), 0, 0, r.ID)
			}
		}
	}
	return cw.Write(w)
}

// WriteProfChromeFile writes the profiler's retained span timeline
// (prof.Records) to a new file at path as a Chrome trace and returns the
// number of spans written. Spans past the record cap are not in it;
// prof.Dropped counts them.
func WriteProfChromeFile(path string) (int, error) {
	recs := prof.Records()
	f, err := os.Create(path)
	if err != nil {
		return 0, err
	}
	if err := WriteProfChrome(f, recs); err != nil {
		_ = f.Close() // the write error is the one worth reporting
		return 0, err
	}
	if err := f.Close(); err != nil {
		return 0, err
	}
	return len(recs), nil
}
