package dist

import (
	"net"
	"strings"
	"sync"
	"testing"

	"tbd/internal/graph"
	"tbd/internal/layers"
	"tbd/internal/optim"
	"tbd/internal/tensor"
)

// mlpConstructor and makeBatch are the tiny separable-classes task the
// transport tests train on.
func mlpConstructor(seed uint64) func() *graph.Network {
	return func() *graph.Network {
		rng := tensor.NewRNG(seed)
		return graph.New("mlp", layers.NewSequential("mlp",
			layers.NewDense("fc1", 4, 16, rng),
			layers.NewReLU("relu"),
			layers.NewDense("fc2", 16, 3, rng),
		))
	}
}

func makeBatch(rng *tensor.RNG, n int) (*tensor.Tensor, []int) {
	x := tensor.New(n, 4)
	labels := make([]int, n)
	for i := 0; i < n; i++ {
		c := rng.Intn(3)
		labels[i] = c
		for j := 0; j < 4; j++ {
			v := float32(rng.Norm()) * 0.3
			if j == c {
				v += 2
			}
			x.Set(v, i, j)
		}
	}
	return x, labels
}

// startPS boots a server on localhost for the given worker count, backed
// by a fresh mlp replica.
func startPS(t *testing.T, workers int, seed uint64) (*PSServer, *graph.Network) {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	master := mlpConstructor(seed)()
	s := ServePS(l, master.Params(), optim.NewSGD(0.1), workers)
	t.Cleanup(func() { s.Close() })
	return s, master
}

func TestPSPullReturnsWeights(t *testing.T) {
	s, master := startPS(t, 1, 1)
	c, err := DialPSThrottled(s.Addr(), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	weights, version, err := c.Pull()
	if err != nil {
		t.Fatal(err)
	}
	if version != 0 {
		t.Fatalf("fresh server version %d", version)
	}
	params := master.Params()
	if len(weights) != len(params) {
		t.Fatalf("pulled %d tensors, want %d", len(weights), len(params))
	}
	for i, w := range weights {
		for j, v := range w {
			if v != params[i].Value.Data()[j] {
				t.Fatal("pulled weights differ from master")
			}
		}
	}
}

func TestPSTrainingMatchesSingleReplica(t *testing.T) {
	// Two TCP workers over localhost must be numerically identical to a
	// single replica trained on the concatenated batch.
	const workers = 2
	s, _ := startPS(t, workers, 42)

	rng := tensor.NewRNG(7)
	x, labels := makeBatch(rng, 16)
	xs, ys := SplitBatch(x, labels, workers)

	// Reference: plain single-replica step on the full batch.
	ref := mlpConstructor(42)()
	graph.TrainClassifierStep(ref, optim.NewSGD(0.1), x, labels, 0)

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
			local := mlpConstructor(99)() // weights will be overwritten by Pull
			weights, _, err := c.Pull()
			if err != nil {
				errs[w] = err
				return
			}
			if err := LoadWeights(local.Params(), weights); err != nil {
				errs[w] = err
				return
			}
			optim.ZeroGrads(local.Params())
			logits := local.Forward(xs[w], true)
			_, grad := tensor.CrossEntropy(logits, ys[w])
			local.Backward(grad)
			_, _, err = c.PushRanked(w, CompressNone, GradSlices(local.Params()))
			errs[w] = err
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if s.Version() != 1 {
		t.Fatalf("server applied %d rounds, want 1", s.Version())
	}
	// Server weights equal the reference update.
	c, _ := DialPSThrottled(s.Addr(), 0)
	defer c.Close()
	weights, _, err := c.Pull()
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range ref.Params() {
		for j, v := range p.Value.Data() {
			d := v - weights[i][j]
			if d > 1e-5 || d < -1e-5 {
				t.Fatalf("param %d[%d]: TCP training %.6f vs single replica %.6f", i, j, weights[i][j], v)
			}
		}
	}
}

func TestPSMultiRoundConvergence(t *testing.T) {
	const workers, rounds = 2, 60
	s, _ := startPS(t, workers, 3)
	rng := tensor.NewRNG(4)

	// Pre-generate per-round shards so both workers stay in lockstep.
	type roundData struct {
		xs []*tensor.Tensor
		ys [][]int
	}
	data := make([]roundData, rounds)
	for r := range data {
		x, labels := makeBatch(rng, 24)
		xs, ys := SplitBatch(x, labels, workers)
		data[r] = roundData{xs: xs, ys: ys}
	}

	losses := make([][]float32, workers)
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
			local := mlpConstructor(5)()
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
				optim.ZeroGrads(local.Params())
				logits := local.Forward(data[r].xs[w], true)
				loss, grad := tensor.CrossEntropy(logits, data[r].ys[w])
				local.Backward(grad)
				losses[w] = append(losses[w], loss)
				weights, _, err = c.PushRanked(w, CompressNone, GradSlices(local.Params()))
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
	if s.Version() != rounds {
		t.Fatalf("server applied %d rounds, want %d", s.Version(), rounds)
	}
	for w := 0; w < workers; w++ {
		first, last := losses[w][0], losses[w][rounds-1]
		if last >= first/2 {
			t.Fatalf("worker %d did not converge over TCP: %.4f -> %.4f", w, first, last)
		}
	}
}

func TestPSRejectsMalformedPush(t *testing.T) {
	s, _ := startPS(t, 1, 6)
	c, err := DialPSThrottled(s.Addr(), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	_, _, err = c.PushRanked(0, CompressNone, [][]float32{{1, 2}})
	if err == nil || !strings.Contains(err.Error(), errBadLength.Error()) {
		t.Fatalf("shape-mismatched push: got %v, want the server's %q", err, errBadLength)
	}
	// The server hung up on the connection it refused a frame on.
	if _, _, err := c.Pull(); err == nil {
		t.Fatal("connection still usable after a refused push")
	}
	if s.Version() != 0 {
		t.Fatalf("a refused push advanced the server to version %d", s.Version())
	}
}

func TestLoadWeightsValidates(t *testing.T) {
	net1 := mlpConstructor(8)()
	if err := LoadWeights(net1.Params(), [][]float32{{1}}); err == nil {
		t.Fatal("tensor-count mismatch must error")
	}
	good := GradSlices(net1.Params()) // same shapes as weights
	if err := LoadWeights(net1.Params(), good); err != nil {
		t.Fatal(err)
	}
	good[0] = good[0][:1]
	if err := LoadWeights(net1.Params(), good); err == nil {
		t.Fatal("element-count mismatch must error")
	}
}

func TestAsyncPSConverges(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	master := mlpConstructor(50)()
	const workers, rounds = 3, 40
	s := ServeBoundedAsyncPS(l, master.Params(), optim.NewSGD(0.05), workers, -1)
	defer s.Close()

	var wg sync.WaitGroup
	errs := make([]error, workers)
	finalLoss := make([]float32, workers)
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
			rng := tensor.NewRNG(uint64(w) + 60)
			local := mlpConstructor(51)()
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
				x, labels := makeBatch(rng, 12)
				optim.ZeroGrads(local.Params())
				logits := local.Forward(x, true)
				loss, grad := tensor.CrossEntropy(logits, labels)
				local.Backward(grad)
				finalLoss[w] = loss
				// Async: push returns immediately with fresh weights.
				weights, _, err = c.PushRanked(w, CompressNone, GradSlices(local.Params()))
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
	// Every push applied individually: version = workers*rounds.
	if s.Version() != workers*rounds {
		t.Fatalf("async server applied %d updates, want %d", s.Version(), workers*rounds)
	}
	for w, loss := range finalLoss {
		if loss > 0.5 {
			t.Fatalf("worker %d final loss %.3f, async training did not converge", w, loss)
		}
	}
}

func TestPushHalfTrainsAndConverges(t *testing.T) {
	// fp16 gradient compression halves wire volume while training still
	// converges (half's 2^-11 relative error is far below SGD noise).
	s, _ := startPS(t, 1, 70)
	c, err := DialPSThrottled(s.Addr(), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	rng := tensor.NewRNG(71)
	local := mlpConstructor(70)()
	weights, _, err := c.Pull()
	if err != nil {
		t.Fatal(err)
	}
	var first, last float32
	for r := 0; r < 60; r++ {
		if err := LoadWeights(local.Params(), weights); err != nil {
			t.Fatal(err)
		}
		x, labels := makeBatch(rng, 16)
		optim.ZeroGrads(local.Params())
		logits := local.Forward(x, true)
		loss, grad := tensor.CrossEntropy(logits, labels)
		local.Backward(grad)
		if r == 0 {
			first = loss
		}
		last = loss
		weights, _, err = c.PushRanked(0, CompressFP16, GradSlices(local.Params()))
		if err != nil {
			t.Fatal(err)
		}
	}
	if last >= first/2 {
		t.Fatalf("fp16-gradient training did not converge: %.4f -> %.4f", first, last)
	}
}
