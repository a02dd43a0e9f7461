package prof

import (
	"bytes"
	"errors"
	"flag"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata golden files")

// edgesTrace is a small two-rank trace with every field a span event
// carries: edges, bytes, FLOPs, and a comm span with its CPU time that
// gets a flow arrow.
func edgesTrace() *Trace {
	rank := func(r int, wall time.Duration) Capture {
		return Capture{Rank: r, Wall: wall, Records: []Record{
			{ID: 1, Name: "step", Cat: CatPhase, Start: 0, Dur: 4 * time.Millisecond},
			{ID: 2, Parent: 1, Name: "phase.forward", Cat: CatPhase, Start: 100 * time.Microsecond, Dur: time.Millisecond},
			{ID: 3, Parent: 2, Name: "gemm", Cat: CatKernel, Start: 200 * time.Microsecond, Dur: 500*time.Microsecond + 1, FLOPs: 3e8, Bytes: 4 << 20},
			{ID: 4, Parent: 1, Name: "comm.ring.allreduce", Cat: CatComm, Start: 2 * time.Millisecond, Dur: time.Millisecond, Bytes: 1 << 20, CPU: 300 * time.Microsecond},
		}}
	}
	return &Trace{
		Meta:  Meta{Model: "m", Workers: 2, Strategy: "ring", CPUs: 2},
		Mem:   MemWatermark{MemBreakdown: MemBreakdown{Weights: 10}, PeakTotal: 10, Samples: 1},
		Ranks: []Capture{rank(0, 5*time.Millisecond), rank(1, 6*time.Millisecond)},
	}
}

// writeEdges renders edgesTrace with the one trace writer.
func writeEdges(t *testing.T) *bytes.Buffer {
	t.Helper()
	var buf bytes.Buffer
	if err := edgesTrace().Write(&buf); err != nil {
		t.Fatal(err)
	}
	return &buf
}

// TestWriteTraceGolden pins the file layout byte for byte.
func TestWriteTraceGolden(t *testing.T) {
	const path = "testdata/trace_golden.json"
	buf := writeEdges(t)
	if *updateGolden {
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (run with -update-golden to create): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("trace JSON diverged from golden.\ngot:  %s\nwant: %s", buf.Bytes(), want)
	}
}

// TestWriteTraceEdges checks the annotations structurally, so a golden
// regeneration cannot silently drop them: pid = rank, the span/parent/
// bytes/flops/cpu_us args, and a flow arrow into each comm span.
func TestWriteTraceEdges(t *testing.T) {
	out := writeEdges(t).String()
	// 8 slices, one flow pair per rank's comm span.
	if strings.Count(out, `"ph":"X"`) != 8 || strings.Count(out, `"ph":"s"`) != 2 || strings.Count(out, `"bp":"e"`) != 2 {
		t.Fatalf("want 8 slices and 2 flow pairs: %s", out)
	}
	for _, want := range []string{`"pid":1`, `"args":{"span":3,"parent":2,"bytes":4194304,"flops":300000000}`, `"args":{"span":4,"parent":1,"bytes":1048576,"cpu_us":300}`, `"otherData":{"version":2`} {
		if !strings.Contains(out, want) {
			t.Fatalf("trace missing %s: %s", want, out)
		}
	}
}

// TestWriteTraceRoundTrip reads a written trace back to the records,
// rank walls, Meta and Mem it was written from.
func TestWriteTraceRoundTrip(t *testing.T) {
	tr := edgesTrace()
	back, err := ReadTrace(writeEdges(t))
	if err != nil {
		t.Fatal(err)
	}
	if back.Spans() != 8 || back.Ranks[1].Wall != 6*time.Millisecond || back.Ranks[0].Records[2] != tr.Ranks[0].Records[2] || back.Ranks[0].Records[3] != tr.Ranks[0].Records[3] || back.Meta != tr.Meta || back.Mem != tr.Mem {
		t.Fatalf("trace did not round-trip: %+v", back)
	}
}

func TestWriteTraceEmpty(t *testing.T) {
	var buf bytes.Buffer
	if err := (&Trace{}).Write(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "\"traceEvents\":[\n]}") {
		t.Fatalf("empty trace must carry an empty event array, not null: %q", buf.String())
	}
	back, err := ReadTrace(&buf)
	if err != nil || back.Spans() != 0 {
		t.Fatalf("empty trace read back as %+v, %v", back, err)
	}
}

// TestReadTraceRefuses holds each hostile shape to its named error.
func TestReadTraceRefuses(t *testing.T) {
	const head = `{"otherData":{"version":2,"ranks":[{"rank":0,"wall_us":10}]},"traceEvents":[`
	span := func(args string) string {
		return `{"name":"k","cat":"kernel","ph":"X","ts":1,"dur":2,"pid":0,"args":` + args + `}`
	}
	for _, c := range []struct {
		name, doc string
		want      error
	}{
		{"negative ts", head + `{"name":"k","cat":"kernel","ph":"X","ts":-1,"pid":0,"args":{"span":1}}]}`, ErrTraceTime},
		{"negative dur", head + `{"name":"k","cat":"kernel","ph":"X","dur":-1,"pid":0,"args":{"span":1}}]}`, ErrTraceTime},
		{"negative cpu", head + span(`{"span":1,"cpu_us":-1}`) + `]}`, ErrTraceTime},
		{"huge ts", head + `{"name":"k","cat":"kernel","ph":"X","ts":1e300,"pid":0,"args":{"span":1}}]}`, ErrTraceTime},
		{"duplicate span", head + span(`{"span":1}`) + "," + span(`{"span":1}`) + `]}`, ErrDuplicateSpan},
		{"missing parent", head + span(`{"span":1,"parent":9}`) + `]}`, ErrMissingParent},
		{"cycle", head + span(`{"span":1,"parent":2}`) + "," + span(`{"span":2,"parent":1}`) + `]}`, ErrCycle},
		{"version", `{"otherData":{"version":1},"traceEvents":[]}`, ErrTraceVersion},
		{"no otherData", `{"traceEvents":[]}`, ErrTraceVersion},
		{"dropped", `{"otherData":{"version":2,"dropped":7},"traceEvents":[]}`, ErrTraceDropped},
	} {
		if _, err := ReadTrace(strings.NewReader(c.doc)); !errors.Is(err, c.want) {
			t.Errorf("%s: got %v, want %v", c.name, err, c.want)
		}
	}
	// The same span ID on two ranks is two spans.
	two := `{"otherData":{"version":2,"ranks":[{"rank":0},{"rank":3}]},"traceEvents":[` + span(`{"span":1}`) + "," +
		strings.Replace(span(`{"span":1}`), `"pid":0`, `"pid":3`, 1) + `,{"name":"dep","ph":"s","ts":-5,"pid":9}]}`
	if tr, err := ReadTrace(strings.NewReader(two)); err != nil || tr.Spans() != 2 {
		t.Fatalf("one span ID on two ranks: %v", err)
	}
	for _, bad := range []string{`[]`, `{"otherData":{"version":2},"traceEvents":[` + span(`{"span":1}`) + `]}`, `{"traceEvents":[{"ph":"X","cat":"nope"}]}`} {
		if _, err := ReadTrace(strings.NewReader(bad)); err == nil {
			t.Errorf("ReadTrace(%s) accepted it", bad)
		}
	}
}

// TestReadTraceBounds holds the reader to its byte and event bounds,
// scaled down so the test stays small.
func TestReadTraceBounds(t *testing.T) {
	var buf bytes.Buffer
	if err := edgesTrace().Write(&buf); err != nil {
		t.Fatal(err)
	}
	n := int64(buf.Len())
	if _, err := readTrace(bytes.NewReader(buf.Bytes()), n, 12); err != nil {
		t.Fatalf("a trace at both bounds: %v", err)
	}
	if _, err := readTrace(bytes.NewReader(buf.Bytes()), n-1, 12); !errors.Is(err, ErrTraceTooLarge) {
		t.Fatalf("one byte over: %v", err)
	}
	if _, err := readTrace(bytes.NewReader(buf.Bytes()), n, 11); !errors.Is(err, ErrTraceTooLarge) {
		t.Fatalf("one event over: %v", err)
	}
}

// FuzzTraceRead feeds arbitrary bytes to the reader: it must return a
// trace or an error, never panic, and allocate no more than a constant
// times its input.
func FuzzTraceRead(f *testing.F) {
	var buf bytes.Buffer
	if err := edgesTrace().Write(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Fuzz(func(t *testing.T, data []byte) {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		tr, err := ReadTrace(bytes.NewReader(data))
		runtime.ReadMemStats(&m1)
		if err == nil && tr == nil {
			t.Fatal("nil trace without an error")
		}
		if alloc := m1.TotalAlloc - m0.TotalAlloc; alloc > 64*uint64(len(data))+1<<20 {
			t.Fatalf("%d input bytes allocated %d", len(data), alloc)
		}
	})
}
