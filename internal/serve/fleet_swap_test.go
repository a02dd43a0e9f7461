package serve

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"tbd/internal/graph"
	"tbd/internal/models"
	"tbd/internal/optim"
	"tbd/internal/tensor"
)

// trainedCheckpoint actually trains a ServeTwin for a few SGD steps and
// serializes it, so the swap tests exercise the real train -> checkpoint
// -> serve round trip rather than a reseeded lookalike.
func trainedCheckpoint(t *testing.T, seed uint64) ([]byte, *graph.Network, []int) {
	t.Helper()
	net, shape, err := models.ServeTwin("mlp", tensor.NewRNG(seed))
	if err != nil {
		t.Fatal(err)
	}
	rng := tensor.NewRNG(seed + 1)
	x := tensor.RandNormal(rng, 0, 1, append([]int{8}, shape...)...)
	classes := net.Infer(x).Shape()[1]
	labels := make([]int, 8)
	for i := range labels {
		labels[i] = rng.Intn(classes)
	}
	opt := optim.NewSGD(0.05)
	for step := 0; step < 3; step++ {
		graph.TrainClassifierStep(net, opt, x, labels, 0)
	}
	var buf bytes.Buffer
	if err := graph.SaveCheckpoint(&buf, net, 3); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), net, shape
}

// TestFleetSwapUnderLoad is the zero-downtime acceptance test: while
// concurrent clients hammer a 4-replica fleet, Swap loads a trained
// checkpoint into the shared weights. Requirements pinned here:
//   - zero failed requests across the whole run (only clean results or
//     admission sheds);
//   - every output served during the run is bit-identical to the old
//     weights' answer or the new weights' — never a half-swapped mix;
//   - after Swap returns, every served output is bit-identical to a
//     fresh session loaded from the same checkpoint (BitExactGemmTier);
//   - the fleet still shares one weight snapshot afterwards.
//
// It runs once per collect mode of replica.run: with a MaxWait timer, and
// greedy (MaxWait 0). Under this load most orders reach a runner between
// batches; TestFleetSwapOrderCutsGreedyBatch stages the mid-collect case.
func TestFleetSwapUnderLoad(t *testing.T) {
	for _, wait := range []time.Duration{time.Millisecond, 0} {
		t.Run(fmt.Sprintf("wait=%v", wait), func(t *testing.T) {
			checkSwapUnderLoad(t, wait)
		})
	}
}

func checkSwapUnderLoad(t *testing.T, maxWait time.Duration) {
	prevTier, err := tensor.SetGemmKernelTier(tensor.BitExactGemmTier())
	if err != nil {
		t.Fatal(err)
	}
	defer tensor.SetGemmKernelTier(prevTier)

	ckpt, trained, shape := trainedCheckpoint(t, 5)
	factory, _ := twinFleetFactory(t, "mlp", 99)
	f, err := NewFleet(factory, FleetConfig{
		Replicas: 4, MaxBatch: 8, MaxWait: maxWait, QueueDepth: 128,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	sample := tensor.RandNormal(tensor.NewRNG(11), 0, 1, shape...)
	one := sample.Reshape(append([]int{1}, shape...)...)
	old, _, err := models.ServeTwin("mlp", tensor.NewRNG(99))
	if err != nil {
		t.Fatal(err)
	}
	wantOld := append([]float32(nil), old.Infer(one).Data()...)
	wantNew := append([]float32(nil), trained.Infer(one).Data()...)

	// Background load across the swap.
	var failed, mixed atomic.Uint64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				res, err := f.Predict(sample)
				switch {
				case errors.Is(err, ErrOverloaded):
				case err != nil:
					failed.Add(1)
				case !slices.Equal(res.Output, wantOld) && !slices.Equal(res.Output, wantNew):
					mixed.Add(1)
				}
			}
		}()
	}
	time.Sleep(10 * time.Millisecond) // mid-load

	if err := f.Swap(func(primary *Session) error {
		_, err := graph.LoadCheckpoint(bytes.NewReader(ckpt), primary.Model().(*graph.Network))
		return err
	}); err != nil {
		t.Fatalf("swap under load: %v", err)
	}

	time.Sleep(10 * time.Millisecond) // keep serving on the new weights
	close(stop)
	wg.Wait()

	if n := failed.Load(); n != 0 {
		t.Fatalf("%d requests failed across the hot-swap; want 0", n)
	}
	if n := mixed.Load(); n != 0 {
		t.Fatalf("%d outputs matched neither the old nor the new weights", n)
	}
	snap := f.Stats()
	if snap.Failed != 0 {
		t.Fatalf("fleet counted %d failed requests across the hot-swap", snap.Failed)
	}
	if snap.Swaps != 1 || snap.LastSwapMs <= 0 {
		t.Fatalf("swap accounting: swaps=%d last_swap_ms=%g", snap.Swaps, snap.LastSwapMs)
	}
	if !f.SharedWeights() {
		t.Fatal("fleet lost weight sharing across the swap")
	}

	// Post-swap outputs must be bit-identical to the trained donor (and
	// to a fresh session loaded from the same checkpoint), on every
	// replica the router touches.
	rng := tensor.NewRNG(21)
	for i := 0; i < 32; i++ {
		x := tensor.RandNormal(rng, 0, 1, shape...)
		want := trained.Infer(x.Reshape(append([]int{1}, shape...)...)).Data()
		res, err := f.Predict(x)
		if err != nil {
			t.Fatalf("post-swap request %d: %v", i, err)
		}
		for j := range want {
			if res.Output[j] != want[j] {
				t.Fatalf("post-swap request %d elem %d (replica %d): %g, checkpoint session %g (must be bit-identical)",
					i, j, res.Replica, res.Output[j], want[j])
			}
		}
	}
}

// gatedModel adds tag to every input element, so an output says which
// weights produced it. With a gate, each forward announces itself and
// then blocks until the gate is closed.
type gatedModel struct {
	tag     float32
	gate    chan struct{}
	entered atomic.Int32
}

func (m *gatedModel) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	if m.gate != nil {
		m.entered.Add(1)
		<-m.gate
	}
	out := tensor.New(x.Shape()...)
	for i, v := range x.Data() {
		out.Data()[i] = v + m.tag
	}
	return out
}

// TestFleetSwapOrderCutsGreedyBatch stages the one interleaving the load
// test reaches only by luck: a greedy runner (MaxWait 0) that is already
// collecting a batch when it pulls the swap order off the queue. The
// requests ahead of the order must ride one batch on the old weights, the
// flip must follow that flush, and the next request sees the new weights.
func TestFleetSwapOrderCutsGreedyBatch(t *testing.T) {
	old := &gatedModel{tag: 100, gate: make(chan struct{})}
	built := 0
	f, err := NewFleet(func() (*Session, error) {
		built++
		if built == 1 {
			return NewSession(old, 1), nil
		}
		return NewSession(&gatedModel{tag: 200}, 1), nil
	}, FleetConfig{MaxBatch: 8, QueueDepth: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	queue := f.replicas[0].queue

	type reply struct {
		res Result
		err error
	}
	send := func(v float32) <-chan reply {
		ch := make(chan reply, 1)
		go func() {
			res, err := f.Predict(tensor.Full(v, 1))
			ch <- reply{res, err}
		}()
		return ch
	}
	waitFor := func(what string, cond func() bool) {
		t.Helper()
		for deadline := time.Now().Add(5 * time.Second); !cond(); time.Sleep(100 * time.Microsecond) {
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s", what)
			}
		}
	}

	a := send(1)
	waitFor("the first forward to block in the old model", func() bool { return old.entered.Load() == 1 })
	b, c := send(2), send(3)
	waitFor("two requests queued behind it", func() bool { return len(queue) == 2 })
	swapped := make(chan error, 1)
	go func() { swapped <- f.Swap(nil) }()
	waitFor("the swap order queued behind them", func() bool { return len(queue) == 3 })
	close(old.gate)

	for i, ch := range []<-chan reply{a, b, c} {
		r := <-ch
		wantBatch := 2 // b and c: collected together, cut short by the order
		if i == 0 {
			wantBatch = 1
		}
		if r.err != nil || r.res.Output[0] != float32(i+1)+100 || r.res.BatchSize != wantBatch {
			t.Fatalf("request %d ahead of the swap order: %+v, %v; want old weights in a batch of %d",
				i, r.res, r.err, wantBatch)
		}
	}
	if err := <-swapped; err != nil {
		t.Fatal(err)
	}
	if r := <-send(4); r.err != nil || r.res.Output[0] != 204 {
		t.Fatalf("request after the swap: %+v, %v; want new weights", r.res, r.err)
	}
}

// TestFleetSwapFp16Refreeze: a half-weights fleet must re-freeze the
// incoming fp32 checkpoint during Swap, ending up bit-identical to a
// fresh session that loaded the same checkpoint and then froze.
func TestFleetSwapFp16Refreeze(t *testing.T) {
	prevTier, err := tensor.SetGemmKernelTier(tensor.BitExactGemmTier())
	if err != nil {
		t.Fatal(err)
	}
	defer tensor.SetGemmKernelTier(prevTier)

	ckpt, _, shape := trainedCheckpoint(t, 17)
	factory, _ := twinFleetFactory(t, "mlp", 99)
	f, err := NewFleet(factory, FleetConfig{
		Replicas: 2, MaxBatch: 4, MaxWait: time.Millisecond, QueueDepth: 32, HalfWeights: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if !f.Stats().HalfWeights {
		t.Fatal("fleet not reporting half weights")
	}

	if err := f.Swap(func(primary *Session) error {
		_, err := graph.LoadCheckpoint(bytes.NewReader(ckpt), primary.Model().(*graph.Network))
		return err
	}); err != nil {
		t.Fatal(err)
	}

	// Reference: fresh network, same checkpoint, then frozen — the state
	// a restart would land in.
	refNet, _, err := models.ServeTwin("mlp", tensor.NewRNG(99))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := graph.LoadCheckpoint(bytes.NewReader(ckpt), refNet); err != nil {
		t.Fatal(err)
	}
	ref := NewSession(refNet, shape...)
	if !ref.FreezeHalfWeights() {
		t.Fatal("reference session did not freeze")
	}

	rng := tensor.NewRNG(23)
	for i := 0; i < 16; i++ {
		x := tensor.RandNormal(rng, 0, 1, shape...)
		want := ref.InferBatch(x.Reshape(append([]int{1}, shape...)...)).Data()
		want = append([]float32(nil), want...)
		res, err := f.Predict(x)
		if err != nil {
			t.Fatal(err)
		}
		for j := range want {
			if res.Output[j] != want[j] {
				t.Fatalf("fp16 post-swap elem %d: fleet %g, restarted session %g", j, res.Output[j], want[j])
			}
		}
	}
}

// nanModel produces non-finite outputs — the canary's job is to catch
// exactly this class of bad checkpoint before any replica flips.
type nanModel struct{}

func (nanModel) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	out := tensor.New(x.Shape()...)
	for i := range out.Data() {
		out.Data()[i] = float32(math.NaN())
	}
	return out
}

// TestFleetSwapCanaryAborts: when the factory starts handing out broken
// sessions, Swap must abort at the canary and leave the old fleet
// serving untouched.
func TestFleetSwapCanaryAborts(t *testing.T) {
	var calls atomic.Int64
	factory := func() (*Session, error) {
		if calls.Add(1) <= 2 {
			return NewSession(identityModel{}, 4), nil
		}
		return NewSession(nanModel{}, 4), nil
	}
	f, err := NewFleet(factory, FleetConfig{Replicas: 2, MaxBatch: 2, QueueDepth: 16})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	if err := f.Swap(nil); err == nil {
		t.Fatal("swap to non-finite weights not aborted by canary")
	}
	if got := f.Stats().Swaps; got != 0 {
		t.Fatalf("aborted swap counted: swaps=%d", got)
	}
	// Old sessions still serve, still identity.
	x := tensor.Full(7, 4)
	res, err := f.Predict(x)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range res.Output {
		if v != 7 {
			t.Fatalf("post-abort output %g, want identity 7", v)
		}
	}
}

// TestFleetSwapAfterClose: a swap racing shutdown is refused cleanly.
func TestFleetSwapAfterClose(t *testing.T) {
	factory := func() (*Session, error) { return NewSession(identityModel{}, 4), nil }
	f, err := NewFleet(factory, FleetConfig{Replicas: 2})
	if err != nil {
		t.Fatal(err)
	}
	f.Close()
	if err := f.Swap(nil); !errors.Is(err, ErrShuttingDown) {
		t.Fatalf("Swap after Close = %v, want ErrShuttingDown", err)
	}
}

// TestFleetSwapLoadError: a load callback failure (corrupt checkpoint)
// aborts before any flip.
func TestFleetSwapLoadError(t *testing.T) {
	factory, _ := twinFleetFactory(t, "mlp", 99)
	f, err := NewFleet(factory, FleetConfig{Replicas: 2, MaxBatch: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	boom := errors.New("corrupt checkpoint")
	if err := f.Swap(func(*Session) error { return boom }); !errors.Is(err, boom) {
		t.Fatalf("Swap load error = %v, want wrapped %v", err, boom)
	}
	if got := f.Stats().Swaps; got != 0 {
		t.Fatalf("failed swap counted: swaps=%d", got)
	}
	// And a truncated stream through the real loader is refused too.
	err = f.Swap(func(primary *Session) error {
		_, err := graph.LoadCheckpoint(io.LimitReader(bytes.NewReader([]byte("tbd")), 3),
			primary.Model().(*graph.Network))
		return err
	})
	if err == nil {
		t.Fatal("truncated checkpoint accepted")
	}
}
