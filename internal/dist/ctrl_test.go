package dist

import (
	"errors"
	"io"
	"net"
	"os"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"tbd/internal/metrics"
	"tbd/internal/prof"
)

// pipeListener hands the coordinator one end of a net.Pipe per queued
// connection, so a test plays every rank from this process.
type pipeListener struct {
	conns chan net.Conn
	done  chan struct{}
	once  sync.Once
}

func (l *pipeListener) Accept() (net.Conn, error) {
	select {
	case c := <-l.conns:
		return c, nil
	case <-l.done:
		return nil, net.ErrClosed
	}
}

func (l *pipeListener) Close() error {
	l.once.Do(func() { close(l.done) })
	return nil
}

func (l *pipeListener) Addr() net.Addr { return &net.UnixAddr{Name: "pipe", Net: "pipe"} }

// coordinate runs a ring coordinator for len(scripts) ranks over pipes.
// Connection i writes scripts[i], reads whatever the coordinator sends and
// hangs up. It fails the test unless Wait returns within 10 s, a fraction
// of ctrlTimeout.
func coordinate(t testing.TB, scripts ...[]byte) (*RunSummary, error) {
	l := &pipeListener{conns: make(chan net.Conn, len(scripts)), done: make(chan struct{})}
	var wg sync.WaitGroup
	var ends []net.Conn
	for _, script := range scripts {
		srv, cli := net.Pipe()
		l.conns <- srv
		ends = append(ends, srv)
		wg.Add(2)
		go func() {
			defer wg.Done()
			_, _ = io.Copy(io.Discard, cli)
		}()
		go func() {
			defer wg.Done()
			_, _ = cli.Write(script) // a refused frame closes the pipe under it
			cli.Close()
		}()
	}
	c := &Coordinator{cfg: CoordConfig{Workers: len(scripts), Strategy: RunRing}, ctrl: l}
	type waited struct {
		s   *RunSummary
		err error
	}
	got := make(chan waited, 1)
	go func() {
		s, err := c.Wait()
		got <- waited{s, err}
	}()
	hung := time.NewTimer(10 * time.Second)
	defer hung.Stop()
	var w waited
	select {
	case w = <-got:
	case <-hung.C:
		t.Fatal("coordinator still waiting 10 s after the ranks stopped writing")
	}
	for _, srv := range ends { // connections the coordinator never accepted
		srv.Close()
	}
	wg.Wait()
	return w.s, w.err
}

// rankScript is a well-formed rank's side of a run: hello, done and a
// result carrying res.
func rankScript(t testing.TB, rank int, res WorkerResult) []byte {
	payload, err := resultPayload(&res)
	if err != nil {
		t.Fatal(err)
	}
	return cat(rawFrame(kindHello, rank, 0, nil), rawFrame(kindDone, rank, 0, nil), rawFrame(kindResult, rank, 0, payload))
}

func cat(frames ...[]byte) []byte {
	var b []byte
	for _, f := range frames {
		b = append(b, f...)
	}
	return b
}

// rankTrace is a one-span capture that rank could have recorded.
func rankTrace(rank int) *prof.Trace {
	return &prof.Trace{
		Meta: prof.Meta{Model: "mlp", Steps: 1, Workers: 2, Strategy: "ring", Rank: rank},
		Ranks: []prof.Capture{{Rank: rank, Wall: 3 * time.Millisecond, Records: []prof.Record{
			{ID: 1, Name: "step", Cat: prof.CatPhase, Start: time.Millisecond, Dur: time.Millisecond},
			{ID: 2, Parent: 1, Name: "comm.ring", Cat: prof.CatComm, Start: time.Millisecond, Dur: 500 * time.Microsecond, Bytes: 64},
		}}},
	}
}

func TestCtrlResultCrossesIntact(t *testing.T) {
	want := []WorkerResult{
		{Rank: 0, Steps: 7, Hash: 0x13a6b9890b83800d, FirstLoss: 2.25, LastLoss: 0.125, WallSec: 1.5, CommSec: 0.25,
			WireIn: 79874000, WireOut: 79874001, Window: metrics.Window{Start: 2, Count: 5, MeanSec: 0.03, StdSec: 0.001, Throughput: 1066.5}},
		{Rank: 1, Steps: 7, Hash: 0x13a6b9890b83800d, Trace: rankTrace(1)},
	}
	s, err := coordinate(t, rankScript(t, 0, want[0]), rankScript(t, 1, want[1]))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(s.Results, want) {
		t.Fatalf("results %+v, want %+v", s.Results, want)
	}
	if !s.Identical || s.WireBytes != 2*79874000+1 {
		t.Fatalf("summary identical %v, %d wire bytes", s.Identical, s.WireBytes)
	}
}

// heartbeatScript is rankScript with two heartbeats between the hello and
// the done, as a rank that trains for two periods sends them.
func heartbeatScript(t testing.TB, rank int) []byte {
	beat := rawFrame(kindHeartbeat, rank, 0, nil)
	script := rankScript(t, rank, WorkerResult{Rank: rank})
	return cat(script[:psHeaderLen], beat, beat, script[psHeaderLen:])
}

func TestCtrlSkipsHeartbeats(t *testing.T) {
	if _, err := coordinate(t, heartbeatScript(t, 0), heartbeatScript(t, 1)); err != nil {
		t.Fatal(err)
	}
}

// shortBeat shortens the heartbeat period for one test.
func shortBeat(t *testing.T, period time.Duration) {
	prev := beat
	beat = period
	t.Cleanup(func() { beat = prev })
}

// TestRunOutlivesTheHeartbeatDeadline trains a 2-rank run for longer than
// heartbeatMisses periods: the waits for done and all-done see heartbeats,
// not a stopwatch, so it finishes.
func TestRunOutlivesTheHeartbeatDeadline(t *testing.T) {
	shortBeat(t, 30*time.Millisecond)
	start := time.Now()
	summary, err := RunLocal(CoordConfig{Workers: 2, Strategy: RunRing, Model: "mlp-wide", Seed: 1, LR: 0.05}, 150, 32, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !summary.Identical {
		t.Fatal("ranks diverged")
	}
	if took, deadline := time.Since(start), heartbeatMisses*beat; took < deadline {
		t.Fatalf("the run took %v, not past the %v deadline it is meant to outlive", took, deadline)
	}
}

// TestCoordinatorNamesASilentRank: rank 1 says hello and goes silent while
// rank 0 keeps training (and sending heartbeats). The coordinator names
// rank 1 within the deadline, Wait returns, and no goroutine is left.
func TestCoordinatorNamesASilentRank(t *testing.T) {
	shortBeat(t, 30*time.Millisecond)
	before := runtime.NumGoroutine()
	c, err := NewCoordinator(CoordConfig{Workers: 2, Strategy: RunRing, Model: "mlp", Seed: 1, LR: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	dial := func(rank int) net.Conn {
		conn, err := net.Dial("tcp", c.Addr())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := conn.Write(rawFrame(kindHello, rank, 0, []byte("127.0.0.1:1"))); err != nil {
			t.Fatal(err)
		}
		return conn
	}
	training, silent := dial(0), dial(1)
	stop := make(chan struct{})
	var beats sync.WaitGroup
	beats.Add(2)
	go func() { // rank 0 trains on: it drains what the coordinator sends and beats
		defer beats.Done()
		_, _ = io.Copy(io.Discard, training)
	}()
	go func() {
		defer beats.Done()
		tick := time.NewTicker(beat)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				if _, err := training.Write(rawFrame(kindHeartbeat, 0, 0, nil)); err != nil {
					return
				}
			}
		}
	}()
	got := make(chan error, 1)
	go func() {
		_, err := c.Wait()
		got <- err
	}()
	limit := 10 * heartbeatMisses * beat
	select {
	case err = <-got:
	case <-time.After(limit):
		t.Fatalf("rank 1 not named within %v", limit)
	}
	close(stop)
	training.Close()
	silent.Close()
	beats.Wait()
	if !errors.Is(err, os.ErrDeadlineExceeded) || !strings.Contains(err.Error(), "rank 1") {
		t.Fatalf("Wait returned %v; want rank 1 named for its silence", err)
	}
	waitGoroutines(t, before)
}

// TestWorkerBeatsThroughTransportSetup: the coordinator's wait for done
// starts at the peers frame, so a rank beats while it sets up its ring, not
// only once it trains. Rank 1 here waits for a previous rank that never
// dials; its heartbeats arrive all the same, and when a wrong rank dials
// instead it stops them and returns.
func TestWorkerBeatsThroughTransportSetup(t *testing.T) {
	shortBeat(t, 30*time.Millisecond)
	before := runtime.NumGoroutine()
	coord, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	next, err := net.Listen("tcp", "127.0.0.1:0") // rank 0's ring listener
	if err != nil {
		t.Fatal(err)
	}
	defer next.Close()
	ran := make(chan error, 1)
	go func() {
		_, err := RunWorker(WorkerConfig{Rank: 1, Workers: 2, Strategy: RunRing, Model: "mlp", Steps: 1, GlobalBatch: 8, CoordAddr: coord.Addr().String()})
		ran <- err
	}()
	conn, err := coord.Accept()
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	h, err := readHeader(conn)
	if err != nil || h.kind != kindHello {
		t.Fatalf("hello: %+v, %v", h, err)
	}
	addr := make([]byte, h.length)
	if _, err := io.ReadFull(conn, addr); err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write(rawFrame(kindPeers, 1, 0, []byte(next.Addr().String()+"\x00"+string(addr)))); err != nil {
		t.Fatal(err)
	}
	dialed, err := next.Accept() // rank 1 dials its next rank, then waits to accept its previous one
	if err != nil {
		t.Fatal(err)
	}
	defer dialed.Close()
	if err := conn.SetReadDeadline(time.Now().Add(heartbeatMisses * beat)); err != nil {
		t.Fatal(err)
	}
	for range 2 {
		if h, err := readHeader(conn); err != nil || h.kind != kindHeartbeat || h.rank != 1 {
			t.Fatalf("while rank 1 sets up its ring: %+v, %v; want its heartbeats", h, err)
		}
	}
	wrong, err := net.Dial("tcp", string(addr))
	if err != nil {
		t.Fatal(err)
	}
	defer wrong.Close()
	if _, err := wrong.Write([]byte{7, 0, 0, 0}); err != nil {
		t.Fatal(err)
	}
	if err := <-ran; err == nil || !strings.Contains(err.Error(), "mis-wired") {
		t.Fatalf("RunWorker returned %v; want the ring refused", err)
	}
	conn.Close()
	dialed.Close()
	wrong.Close()
	waitGoroutines(t, before)
}

// hostileCtrl is a run of two ranks where one sends a frame the
// coordinator must refuse; each case names the error.
func hostileCtrl(t testing.TB) map[string]struct {
	scripts [][]byte
	want    error
} {
	good := func(rank int) []byte { return rankScript(t, rank, WorkerResult{Rank: rank}) }
	hello1 := rawFrame(kindHello, 1, 0, nil)
	done1 := rawFrame(kindDone, 1, 0, nil)
	result := func(rank int, tr *prof.Trace) []byte {
		payload, err := resultPayload(&WorkerResult{Trace: tr})
		if err != nil {
			t.Fatal(err)
		}
		return rawFrame(kindResult, rank, 0, payload)
	}
	dropped := rankTrace(1)
	dropped.Dropped = 3
	badMagic := rawFrame(kindHello, 1, 0, nil)
	copy(badMagic, "GOB")
	huge := rawFrame(kindResult, 1, 0, nil)
	huge[12], huge[13], huge[14], huge[15] = 0xff, 0xff, 0xff, 0xff
	return map[string]struct {
		scripts [][]byte
		want    error
	}{
		"truncated header":        {[][]byte{good(0), hello1[:9]}, io.ErrUnexpectedEOF},
		"bad magic":               {[][]byte{good(0), badMagic}, errBadMagic},
		"unknown kind":            {[][]byte{good(0), cat(hello1, rawFrame(99, 1, 0, nil))}, errUnknownKind},
		"parameter-server kind":   {[][]byte{good(0), cat(hello1, rawFrame(kindPull, 1, 0, nil))}, errUnknownKind},
		"done before hello":       {[][]byte{good(0), done1}, errOutOfSequence},
		"result before done":      {[][]byte{good(0), cat(hello1, result(1, nil))}, errOutOfSequence},
		"hello rank out of range": {[][]byte{good(0), rawFrame(kindHello, 2, 0, nil)}, errRankRange},
		"negative hello rank":     {[][]byte{good(0), rawFrame(kindHello, -1, 0, nil)}, errRankRange},
		"duplicate hello rank":    {[][]byte{good(0), good(0)}, errRankTaken},
		"hello over its bound":    {[][]byte{good(0), rawFrame(kindHello, 1, 0, make([]byte, ctrlMaxAddr+1))}, errBadLength},
		"done with a payload":     {[][]byte{good(0), cat(hello1, rawFrame(kindDone, 1, 0, []byte{1}))}, errBadLength},
		"heartbeat with payload":  {[][]byte{good(0), cat(hello1, rawFrame(kindHeartbeat, 1, 0, []byte{1}))}, errBadLength},
		"heartbeat before hello":  {[][]byte{good(0), rawFrame(kindHeartbeat, 1, 0, nil)}, errOutOfSequence},
		"heartbeat of rank 0":     {[][]byte{good(0), cat(hello1, rawFrame(kindHeartbeat, 0, 0, nil))}, errWrongRank},
		"done from another rank":  {[][]byte{good(0), cat(hello1, rawFrame(kindDone, 0, 0, nil))}, errWrongRank},
		"short result":            {[][]byte{good(0), cat(hello1, done1, rawFrame(kindResult, 1, 0, make([]byte, resultFixedLen-1)))}, errBadLength},
		"result from rank 0":      {[][]byte{good(0), cat(hello1, done1, result(0, nil))}, errWrongRank},
		"trace of another rank":   {[][]byte{good(0), cat(hello1, done1, result(1, rankTrace(0)))}, errWrongRank},
		"trace that dropped":      {[][]byte{good(0), cat(hello1, done1, result(1, dropped))}, prof.ErrTraceDropped},
		"trace of another format": {[][]byte{good(0), cat(hello1, done1, rawFrame(kindResult, 1, 0, append(make([]byte, resultFixedLen), `{"otherData":{"version":1}}`...)))}, prof.ErrTraceVersion},
		"result cut in its trace": {[][]byte{good(0), cat(hello1, done1, result(1, rankTrace(1))[:psHeaderLen+int(resultFixedLen)+40])}, io.ErrUnexpectedEOF},
		"4 GiB result":            {[][]byte{good(0), cat(hello1, done1, huge)}, errBadLength},
	}
}

func TestCoordinatorRefusesHostileControlFrames(t *testing.T) {
	for name, c := range hostileCtrl(t) {
		t.Run(name, func(t *testing.T) {
			s, err := coordinate(t, c.scripts...)
			if !errors.Is(err, c.want) {
				t.Fatalf("got %v, want %v", err, c.want)
			}
			if s != nil {
				t.Fatal("a refused run returned a summary")
			}
		})
	}
}

func TestWorkerRefusesHostilePeers(t *testing.T) {
	peers := []byte("127.0.0.1:1\x00127.0.0.1:2")
	for name, c := range map[string]struct {
		frame []byte
		want  error
	}{
		"peers over its bound": {rawFrame(kindPeers, 1, 0, make([]byte, 2*(ctrlMaxAddr+1)+1)), errBadLength},
		"one peer short":       {rawFrame(kindPeers, 1, 0, peers[:11]), errBadLength},
		"a peer too many":      {rawFrame(kindPeers, 1, 0, append(peers, 0)), errBadLength},
		"another rank's peers": {rawFrame(kindPeers, 0, 0, peers), errWrongRank},
		"all-done first":       {rawFrame(kindAllDone, 1, 0, nil), errOutOfSequence},
		"cut in the payload":   {rawFrame(kindPeers, 1, 0, peers)[:psHeaderLen+4], io.ErrUnexpectedEOF},
	} {
		t.Run(name, func(t *testing.T) {
			l, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer l.Close()
			go func() {
				conn, err := l.Accept()
				if err != nil {
					return
				}
				defer conn.Close()
				hello := make([]byte, psHeaderLen)
				if _, err := io.ReadFull(conn, hello); err == nil {
					_, _ = conn.Write(c.frame)
				}
			}()
			_, err = RunWorker(WorkerConfig{Rank: 1, Workers: 2, Strategy: RunPSSync, Model: "mlp", Steps: 1, GlobalBatch: 8, CoordAddr: l.Addr().String()})
			if !errors.Is(err, c.want) {
				t.Fatalf("got %v, want %v", err, c.want)
			}
		})
	}
}

// FuzzCtrlFrame throws byte streams at a coordinator's receive side as one
// rank of a one-rank run: whatever arrives, Wait must return once the rank
// hangs up — no panic, no hang — having allocated no more than a constant
// and the input account for. The seeds added below are the hostile cases'
// second rank played alone; testdata/fuzz/FuzzCtrlFrame holds whole
// exchanges, valid and cut.
func FuzzCtrlFrame(f *testing.F) {
	f.Add(rankScript(f, 0, WorkerResult{Steps: 3}))
	f.Add(heartbeatScript(f, 0))
	for _, c := range hostileCtrl(f) {
		f.Add(c.scripts[len(c.scripts)-1])
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		s, err := coordinate(t, data)
		runtime.ReadMemStats(&after)
		if err == nil && (len(s.Results) != 1 || s.Results[0].Rank != 0) {
			t.Fatalf("accepted run with results %+v", s.Results)
		}
		// Two pipes and their goroutines, the trace reader's parse (a
		// constant times its input), and slack for the fuzzing engine. A
		// buffer sized from a length field would be gigabytes.
		if grew, limit := after.TotalAlloc-before.TotalAlloc, uint64(4<<20+64*len(data)); grew > limit {
			t.Fatalf("%d input bytes made the coordinator allocate %d, limit %d", len(data), grew, limit)
		}
	})
}
