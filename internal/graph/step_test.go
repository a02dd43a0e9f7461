package graph

import (
	"reflect"
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
