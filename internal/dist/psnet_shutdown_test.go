package dist

import (
	"net"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"tbd/internal/optim"
	"tbd/internal/tensor"
)

// TestPSCloseUnblocksInFlightHandlers is the shutdown contract, mirroring
// the serve package's drain tests: Close must deterministically unblock
// (a) handlers parked in a synchronous round barrier waiting for peers
// that will never push, (b) handlers parked in a header read on idle
// connections, and (c) the accept loop — and leave no goroutine behind.
func TestPSCloseUnblocksInFlightHandlers(t *testing.T) {
	before := runtime.NumGoroutine()

	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	master := mlpConstructor(20)()
	s := ServePS(l, master.Params(), optim.NewSGD(0.1), 2) // 2 workers, only 1 will push

	// An idle connection: its handler sits in a header read.
	idle, err := DialPSThrottled(s.Addr(), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer idle.Close()
	if _, _, err := idle.Pull(); err != nil {
		t.Fatal(err)
	}

	// A push that can never complete: the round needs a second worker.
	pusher, err := DialPSThrottled(s.Addr(), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer pusher.Close()
	pushErr := make(chan error, 1)
	go func() {
		_, _, err := pusher.PushRanked(0, CompressNone, GradSlices(master.Params()))
		pushErr <- err
	}()

	waitRankSeen(t, s, 1)

	done := make(chan struct{})
	go func() {
		s.Close()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Close hung with handlers in flight")
	}
	if err := <-pushErr; err == nil {
		t.Fatal("blocked push must fail when the server closes")
	}

	// Every server goroutine (accept loop + 2 handlers) must be gone.
	idle.Close()
	pusher.Close()
	for deadline := time.Now().Add(2 * time.Second); runtime.NumGoroutine() > before && time.Now().Before(deadline); {
		runtime.Gosched()
		time.Sleep(5 * time.Millisecond)
	}
	if g := runtime.NumGoroutine(); g > before {
		t.Fatalf("goroutines leaked: %d before, %d after Close", before, g)
	}
}

// psTrainRanked trains `rounds` steps with `workers` ranked TCP clients
// and returns the server's final weights hash. delays staggers worker
// push timing to scramble network arrival order.
func psTrainRanked(t *testing.T, seed uint64, workers, rounds int, comp Compression, delays []time.Duration) uint64 {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	master := mlpConstructor(seed)()
	s := ServePS(l, master.Params(), optim.NewSGD(0.1), workers)
	defer s.Close()

	var wg sync.WaitGroup
	errs := make([]error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c, err := DialPSThrottled(s.Addr(), 0)
			if err != nil {
				errs[w] = err
				return
			}
			defer c.Close()
			local := mlpConstructor(seed)()
			dataRNG := tensor.NewRNG(seed + 9)
			weights, _, err := c.Pull()
			if err != nil {
				errs[w] = err
				return
			}
			for r := 0; r < rounds; r++ {
				if err := LoadWeights(local.Params(), weights); err != nil {
					errs[w] = err
					return
				}
				x, labels := makeBatch(dataRNG, 4*workers)
				xs, ys := SplitBatch(x, labels, workers)
				optim.ZeroGrads(local.Params())
				logits := local.Forward(xs[w], true)
				_, grad := tensor.CrossEntropy(logits, ys[w])
				local.Backward(grad)
				time.Sleep(delays[w])
				weights, _, err = c.PushRanked(w, comp, GradSlices(local.Params()))
				if err != nil {
					errs[w] = err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	return master.WeightsHash()
}

func TestRankedSyncPSBitIdenticalAcrossRuns(t *testing.T) {
	// Ranked pushes reduce in rank order regardless of network arrival,
	// so two runs with deliberately different arrival patterns must end
	// in bit-identical server weights.
	h1 := psTrainRanked(t, 31, 3, 8, CompressNone, []time.Duration{0, 2 * time.Millisecond, 4 * time.Millisecond})
	h2 := psTrainRanked(t, 31, 3, 8, CompressNone, []time.Duration{4 * time.Millisecond, 0, 2 * time.Millisecond})
	if h1 != h2 {
		t.Fatalf("ranked sync runs diverged: %x vs %x", h1, h2)
	}
}

func TestRankedPushValidatesRank(t *testing.T) {
	s, master := startPS(t, 2, 25)
	for _, rank := range []int{5, -1} {
		c, err := DialPSThrottled(s.Addr(), 0)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		_, _, err = c.PushRanked(rank, CompressNone, GradSlices(master.Params()))
		if err == nil || !strings.Contains(err.Error(), "outside [0, 2)") {
			t.Fatalf("rank %d: got %v, want the server's range error", rank, err)
		}
	}
}

func TestDoublePushRejected(t *testing.T) {
	// Two connections claiming one rank in the same round: the first parks
	// in the barrier, the second is refused and the round stays open.
	s, master := startPS(t, 2, 26)
	grads := GradSlices(master.Params())
	first, err := DialPSThrottled(s.Addr(), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer first.Close()
	parked := make(chan error, 1)
	go func() {
		_, _, err := first.PushRanked(0, CompressNone, grads)
		parked <- err
	}()
	waitRankSeen(t, s, 1)
	second, err := DialPSThrottled(s.Addr(), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer second.Close()
	if _, _, err := second.PushRanked(0, CompressNone, grads); err == nil || !strings.Contains(err.Error(), "pushed twice") {
		t.Fatalf("second push of rank 0: got %v, want a double-push error", err)
	}
	other, err := DialPSThrottled(s.Addr(), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer other.Close()
	if _, version, err := other.PushRanked(1, CompressNone, grads); err != nil || version != 1 {
		t.Fatalf("rank 1 completing the round: version %d, err %v", version, err)
	}
	if err := <-parked; err != nil {
		t.Fatalf("the parked push must complete with the round: %v", err)
	}
}

// waitRankSeen blocks until n pushes are parked in the current round.
func waitRankSeen(t *testing.T, s *PSServer, n int) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		s.mu.Lock()
		seen := s.rankSeen
		s.mu.Unlock()
		if seen == n {
			return
		}
	}
	t.Fatalf("%d pushes never parked", n)
}

func TestPushInt8RankedConverges(t *testing.T) {
	// One worker, int8-compressed ranked pushes with client-side error
	// feedback: training still converges over real TCP.
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	master := mlpConstructor(80)()
	s := ServePS(l, master.Params(), optim.NewSGD(0.1), 1)
	defer s.Close()

	c, err := DialPSThrottled(s.Addr(), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	local := mlpConstructor(80)()
	dataRNG := tensor.NewRNG(81)
	weights, _, err := c.Pull()
	if err != nil {
		t.Fatal(err)
	}
	var first, last float32
	for r := 0; r < 60; r++ {
		if err := LoadWeights(local.Params(), weights); err != nil {
			t.Fatal(err)
		}
		x, labels := makeBatch(dataRNG, 16)
		optim.ZeroGrads(local.Params())
		logits := local.Forward(x, true)
		loss, grad := tensor.CrossEntropy(logits, labels)
		local.Backward(grad)
		if r == 0 {
			first = loss
		}
		last = loss
		weights, _, err = c.PushRanked(0, CompressInt8, GradSlices(local.Params()))
		if err != nil {
			t.Fatal(err)
		}
	}
	if last >= first/2 {
		t.Fatalf("int8-gradient training did not converge: %.4f -> %.4f", first, last)
	}
}

func TestBoundedStalenessHoldsFastWorker(t *testing.T) {
	// SSP contract: with staleness 1, a worker may run at most one round
	// ahead of the slowest peer. The fast worker's second push must block
	// until the slow worker's first push lands.
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	master := mlpConstructor(90)()
	s := ServeBoundedAsyncPS(l, master.Params(), optim.NewSGD(0.01), 2, 1)
	defer s.Close()

	fast, err := DialPSThrottled(s.Addr(), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer fast.Close()
	slow, err := DialPSThrottled(s.Addr(), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer slow.Close()

	grads := GradSlices(master.Params())
	// First fast push: clock 1 vs min 0 — exactly at the bound, no block.
	if _, _, err := fast.PushRanked(0, CompressNone, grads); err != nil {
		t.Fatal(err)
	}
	// Second fast push: would be 2 ahead — must block.
	second := make(chan error, 1)
	go func() {
		_, _, err := fast.PushRanked(0, CompressNone, grads)
		second <- err
	}()
	select {
	case err := <-second:
		t.Fatalf("push beyond the staleness bound returned early (err=%v)", err)
	case <-time.After(100 * time.Millisecond):
	}
	// The slow worker catches up; the fast worker must now be released.
	if _, _, err := slow.PushRanked(1, CompressNone, grads); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-second:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("fast worker still blocked after the straggler caught up")
	}
	if s.Version() != 3 {
		t.Fatalf("bounded-async server applied %d updates, want 3", s.Version())
	}
}

func TestPSClientCountsWireBytes(t *testing.T) {
	s, _ := startPS(t, 1, 95)
	c, err := DialPSThrottled(s.Addr(), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, _, err := c.Pull(); err != nil {
		t.Fatal(err)
	}
	in, out := c.WireBytes()
	if in <= 0 || out <= 0 {
		t.Fatalf("wire byte counters (in=%d, out=%d) did not move on a pull", in, out)
	}
}
