package graph

import (
	"reflect"
	"runtime"
	"sort"
	"testing"

	"tbd/internal/layers"
	"tbd/internal/optim"
	"tbd/internal/prof"
	"tbd/internal/tensor"
)

func TestStepDriversEndOnTheSameWeights(t *testing.T) {
	// On [N, C] logits the two drivers are one step: k = 1 accumulation
	// scales nothing.
	drivers := map[string]func(*Network, optim.Optimizer, *tensor.Tensor, []int) StepResult{
		"classifier": func(n *Network, o optim.Optimizer, x *tensor.Tensor, y []int) StepResult {
			return TrainClassifierStep(n, o, x, y, 5)
		},
		"accumulated": func(n *Network, o optim.Optimizer, x *tensor.Tensor, y []int) StepResult {
			return TrainClassifierAccumulated(n, o, []*tensor.Tensor{x}, [][]int{y}, 5)
		},
	}
	type end struct {
		hash uint64
		last StepResult
	}
	ends := map[string]end{}
	for name, step := range drivers {
		net, opt, rng := mlp(tensor.NewRNG(31)), optim.NewAdam(0.05), tensor.NewRNG(32)
		var last StepResult
		for i := 0; i < 5; i++ {
			x, y := twoClusterBatch(rng, 16)
			last = step(net, opt, x, y)
		}
		ends[name] = end{net.WeightsHash(), last}
	}
	if ends["classifier"].last.GradNorm <= 0 {
		t.Fatal("clip 5 reported no gradient norm")
	}
	for name, e := range ends {
		if e != ends["classifier"] {
			t.Errorf("%s ended on %+v, classifier on %+v", name, e, ends["classifier"])
		}
	}
}

// stepShape profiles run and returns, for each step span it emitted, the
// names of that span's phase children in start order.
func stepShape(t *testing.T, run func()) [][]string {
	t.Helper()
	prof.Enable()
	run()
	prof.Disable()
	recs := prof.Records()
	sort.Slice(recs, func(i, j int) bool { return recs[i].Start < recs[j].Start })
	var shapes [][]string
	for _, step := range recs {
		if step.Name != "step" || step.Cat != prof.CatPhase {
			continue
		}
		var children []string
		for _, r := range recs {
			if r.Parent == step.ID && r.Cat == prof.CatPhase {
				children = append(children, r.Name)
			}
		}
		shapes = append(shapes, children)
	}
	return shapes
}

func TestStepSpanShape(t *testing.T) {
	// The tree whatif.Capture records and Replay keys on: one step span,
	// forward/loss/backward under it once per micro-batch, then the apply
	// phase.
	micro := []string{"phase.forward", "phase.loss", "phase.backward"}
	rng := tensor.NewRNG(33)
	x, y := twoClusterBatch(rng, 8)
	seqX := tensor.New(4, 3)
	seqNet := New("seq", layers.NewSequential("seq",
		layers.NewEmbedding("emb", 2, 4, rng),
		layers.NewLSTM("lstm", 4, 4, rng),
		layers.NewDense("proj", 4, 2, rng),
	))
	for _, c := range []struct {
		name string
		k    int
		last string
		run  func()
	}{
		{"classifier", 1, "phase.update", func() { TrainClassifierStep(mlp(rng), optim.NewSGD(0.1), x, y, 5) }},
		{"accumulated", 3, "phase.update", func() {
			TrainClassifierAccumulated(mlp(rng), optim.NewSGD(0.1), []*tensor.Tensor{x, x, x}, [][]int{y, y, y}, 0)
		}},
		{"sequence", 1, "phase.update", func() { TrainClassifierStep(seqNet, optim.NewSGD(0.1), seqX, make([]int, 12), 5) }},
		{"exchanged", 1, "phase.sync", func() {
			_, err := TrainClassifierExchanged(mlp(rng), optim.NewSGD(0.1), x, y, func([]*layers.Param) error { return nil })
			if err != nil {
				t.Error(err)
			}
		}},
	} {
		var want []string
		for i := 0; i < c.k; i++ {
			want = append(want, micro...)
		}
		want = append(want, c.last)
		if got := stepShape(t, c.run); !reflect.DeepEqual(got, [][]string{want}) {
			t.Errorf("%s: step children %v, want one step of %v", c.name, got, want)
		}
	}
}

// trainGemmShaped is bench's train_gemm model scaled down: two square
// ReLU layers and a head, at a batch small enough that every activation is
// a fraction of a weight matrix.
func trainGemmShaped(rng *tensor.RNG, h, batch int) (*Network, *tensor.Tensor, []int) {
	net := New("mlp", layers.NewSequential("mlp",
		layers.NewDenseAct("fc1", h, h, tensor.ActReLU, rng),
		layers.NewDenseAct("fc2", h, h, tensor.ActReLU, rng),
		layers.NewDense("fc3", h, 10, rng),
	))
	labels := make([]int, batch)
	for i := range labels {
		labels[i] = rng.Intn(10)
	}
	return net, tensor.RandNormal(rng, 0, 1, batch, h), labels
}

func TestStepComputesNoUnreadInputGradient(t *testing.T) {
	// Nobody reads the first layer's input gradient, so the step asks for
	// none; the layer span stays, for traces that key on its path.
	net, x, labels := trainGemmShaped(tensor.NewRNG(34), 32, 8)
	prof.Enable()
	TrainClassifierStep(net, optim.NewSGD(0.1), x, labels, 5)
	prof.Disable()
	recs := prof.Records()
	dX := map[string]int{}
	for _, layer := range recs {
		if layer.Cat != prof.CatBackward {
			continue
		}
		n := 0
		for _, r := range recs {
			if r.Parent == layer.ID && r.Name == "gemm.dX" {
				n++
			}
		}
		dX[layer.Name] += n
	}
	if want := map[string]int{"fc1": 0, "fc2": 1, "fc3": 1}; !reflect.DeepEqual(dX, want) {
		t.Errorf("gemm.dX spans per backward layer span %v, want %v", dX, want)
	}
}

func TestZeroGradsLeavesZerosBehindUntouchedParams(t *testing.T) {
	// ZeroGrads zeroes eagerly: a parameter no layer writes in a step reads
	// zero straight after it and after the step, not last step's gradient.
	net, x, labels := trainGemmShaped(tensor.NewRNG(35), 16, 4)
	idle := layers.NewParam("idle", tensor.New(3))
	params := append(net.Params(), idle)
	for _, p := range params {
		p.Grad.Fill(3)
	}
	optim.ZeroGrads(params)
	for _, p := range params {
		for i, v := range p.Grad.Data() {
			if v != 0 {
				t.Fatalf("%s.Grad[%d] = %v straight after ZeroGrads", p.Name, i, v)
			}
		}
	}
	TrainClassifierStep(net, optim.NewSGD(0.1), x, labels, 0)
	if g := idle.Grad.Data(); g[0] != 0 || g[1] != 0 || g[2] != 0 {
		t.Fatalf("untouched parameter's gradient %v, want zeros", g)
	}
}

// TestStepSteadyStateTakesNoWeightSizedTemporary pins what a step takes
// from the tensor pool at train_gemm's shape. The first gradient write of a
// step is computed in Grad, so the step never asks for an In x Out buffer:
// starting from an empty pool, whole steps allocate less than one beyond the
// GEMM pack scratch, and a warmed step makes 11 requests, all served from
// the free list — 15 before, the four gone being three dW temporaries and
// fc1's input gradient.
func TestStepSteadyStateTakesNoWeightSizedTemporary(t *testing.T) {
	const h, batch = 512, 16
	prev := tensor.SetPooling(false) // drops every buffer earlier tests parked
	tensor.SetPooling(true)
	defer tensor.SetPooling(prev)
	net, x, labels := trainGemmShaped(tensor.NewRNG(36), h, batch)
	opt := optim.NewSGD(0.01) // no state to allocate
	step := func() { TrainClassifierStep(net, opt, x, labels, 5) }
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < 3; i++ {
		step()
	}
	runtime.ReadMemStats(&after)
	parked, pack := tensor.PoolRetainedBytes()
	const weightBytes = 4 * h * h
	if got := int64(after.TotalAlloc-before.TotalAlloc) - pack; got >= weightBytes {
		t.Errorf("three steps from an empty pool allocated %d bytes beside pack scratch, want less than one %d-byte weight-sized buffer", got, weightBytes)
	}
	if parked >= weightBytes {
		t.Errorf("pool holds %d bytes between steps, want less than one %d-byte weight-sized buffer", parked, weightBytes)
	}
	start := tensor.PoolStatsSnapshot()
	step()
	if d := tensor.PoolStatsSnapshot().Sub(start); d.Gets != 11 || d.Hits != d.Gets {
		t.Errorf("warmed step: %d pool requests, %d served from the free list; want 11, all served", d.Gets, d.Hits)
	}
}
