package models

import (
	"testing"

	"tbd/internal/data"
	"tbd/internal/framework"
	"tbd/internal/graph"
	"tbd/internal/kernels"
	"tbd/internal/layers"
	"tbd/internal/memprof"
	"tbd/internal/optim"
	"tbd/internal/tensor"
)

func TestSuiteMatchesTable2(t *testing.T) {
	suite := Suite()
	if len(suite) != 8 {
		t.Fatalf("suite has %d models, want 8 (Table 2)", len(suite))
	}
	want := map[string]struct {
		app      string
		dominant string
		dataset  string
	}{
		"ResNet-50":     {"Image classification", "CONV", "ImageNet1K"},
		"Inception-v3":  {"Image classification", "CONV", "ImageNet1K"},
		"Seq2Seq":       {"Machine translation", "LSTM", "IWSLT15"},
		"Transformer":   {"Machine translation", "Attention", "IWSLT15"},
		"Faster R-CNN":  {"Object detection", "CONV", "Pascal VOC 2007"},
		"Deep Speech 2": {"Speech recognition", "RNN", "LibriSpeech"},
		"WGAN":          {"Adversarial learning", "CONV", "Downsampled ImageNet"},
		"A3C":           {"Deep reinforcement learning", "CONV", "Atari 2600"},
	}
	apps := map[string]bool{}
	for _, m := range suite {
		w, ok := want[m.Name]
		if !ok {
			t.Fatalf("unexpected model %q", m.Name)
		}
		if m.Application != w.app || m.DominantLayer != w.dominant || m.Dataset.Name != w.dataset {
			t.Fatalf("%s: got (%s, %s, %s)", m.Name, m.Application, m.DominantLayer, m.Dataset.Name)
		}
		apps[m.Application] = true
	}
	if len(apps) != 6 {
		t.Fatalf("suite covers %d application domains, want 6", len(apps))
	}
}

func TestFrameworkAvailabilityMatchesTable2(t *testing.T) {
	cases := map[string][]string{
		"ResNet-50":     {"TensorFlow", "MXNet", "CNTK"},
		"Inception-v3":  {"TensorFlow", "MXNet", "CNTK"},
		"Seq2Seq":       {"TensorFlow", "MXNet"},
		"Transformer":   {"TensorFlow"},
		"Faster R-CNN":  {"TensorFlow", "MXNet"},
		"Deep Speech 2": {"MXNet"},
		"WGAN":          {"TensorFlow"},
		"A3C":           {"MXNet"},
	}
	for name, fws := range cases {
		m, err := Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, fw := range fws {
			if !m.SupportsFramework(fw) {
				t.Fatalf("%s should support %s", name, fw)
			}
		}
		if len(m.Frameworks) != len(fws) {
			t.Fatalf("%s supports %d frameworks, want %d", name, len(m.Frameworks), len(fws))
		}
	}
	// Variant names: NMT on TF, Sockeye on MXNet.
	s2s, _ := Lookup("Seq2Seq")
	if s2s.ImplName("TensorFlow") != "NMT" || s2s.ImplName("MXNet") != "Sockeye" {
		t.Fatal("seq2seq implementation names wrong")
	}
	if s2s.ImplName("CNTK") != "Seq2Seq" {
		t.Fatal("fallback impl name wrong")
	}
}

func TestSeq2SeqBatchCaps(t *testing.T) {
	// §4.2.1: NMT trains at up to 128, Sockeye only 64, on 8 GB.
	m, _ := Lookup("Seq2Seq")
	tfB := m.BatchesFor("TensorFlow")
	mxB := m.BatchesFor("MXNet")
	if tfB[len(tfB)-1] != 128 {
		t.Fatalf("NMT max batch %d, want 128", tfB[len(tfB)-1])
	}
	if mxB[len(mxB)-1] != 64 {
		t.Fatalf("Sockeye max batch %d, want 64", mxB[len(mxB)-1])
	}
}

func TestTransformerBatchUnitIsTokens(t *testing.T) {
	m, _ := Lookup("Transformer")
	if m.BatchUnit != "tokens" {
		t.Fatal("Transformer sweep must be in tokens (Figure 4d)")
	}
	if m.SamplesForBatch(4096) != 4096/25 {
		t.Fatalf("token conversion wrong: %d", m.SamplesForBatch(4096))
	}
	if m.SamplesForBatch(10) != 1 {
		t.Fatal("token conversion must floor at one sentence")
	}
	b := m.BatchSizes
	if b[0] != 64 || b[len(b)-1] != 4096 {
		t.Fatalf("Transformer sweep %v", b)
	}
}

func TestResNet50ParameterCount(t *testing.T) {
	m, _ := Lookup("ResNet-50")
	var params int64
	for _, op := range m.Ops() {
		params += op.ParamElems()
	}
	// Real ResNet-50 has 25.6M parameters; the op graph should land in
	// the same ballpark.
	if params < 20e6 || params > 33e6 {
		t.Fatalf("ResNet-50 params = %.1fM, want ~25M", float64(params)/1e6)
	}
}

func TestResNet50PerIterationFLOPs(t *testing.T) {
	m, _ := Lookup("ResNet-50")
	ks := kernels.IterationKernels(m.Ops(), 1, kernels.StyleTF)
	fl := kernels.TotalFLOPs(ks)
	// Forward-only ResNet-50 is ~3.9 GFLOP/image (counting MAC=2);
	// training adds ~2x backward, so expect roughly 8-20 GFLOP.
	if fl < 8e9 || fl > 25e9 {
		t.Fatalf("ResNet-50 training FLOPs/image = %.2f G", fl/1e9)
	}
}

func TestDominantLayerDominatesCompute(t *testing.T) {
	// Table 2's "dominant layer" column: the declared layer class must
	// carry the majority of each model's FLOPs.
	classFor := map[string]kernels.Class{"CONV": kernels.Conv, "LSTM": kernels.GEMM, "RNN": kernels.GEMM, "Attention": kernels.GEMM}
	for _, m := range Suite() {
		want := classFor[m.DominantLayer]
		var total, dom float64
		for _, op := range m.Ops() {
			for _, k := range op.Forward(4, kernels.StyleTF) {
				total += k.FLOPs
				if k.Class == want {
					dom += k.FLOPs
				}
			}
		}
		if dom/total < 0.5 {
			t.Fatalf("%s: dominant class carries only %.0f%% of FLOPs", m.Name, 100*dom/total)
		}
	}
}

func TestMemoryFootprintsFitHardware(t *testing.T) {
	// Every (model, framework, batch) cell the paper plots trained on an
	// 8 GB P4000, with modest tolerance for our analytic model.
	for _, m := range Suite() {
		for _, fwName := range m.Frameworks {
			fw, _ := framework.Lookup(fwName)
			for _, b := range m.BatchesFor(fwName) {
				n := m.SamplesForBatch(b)
				mem := memprof.ProfileOps(m.Ops(), n, fw.MemPolicy)
				if mem.Total() > int64(10)<<30 {
					t.Fatalf("%s/%s batch %d: %.1f GB exceeds plausible 8 GB budget",
						m.Name, fwName, b, float64(mem.Total())/(1<<30))
				}
			}
		}
	}
}

func TestOpGraphsAreWellFormed(t *testing.T) {
	for _, m := range Suite() {
		ops := m.Ops()
		if len(ops) == 0 {
			t.Fatalf("%s has no ops", m.Name)
		}
		for _, op := range ops {
			if op.Name == "" {
				t.Fatalf("%s has an unnamed op", m.Name)
			}
			if op.OutputElemsPerSample() < 0 || op.StashElemsPerSample() < 0 || op.ParamElems() < 0 {
				t.Fatalf("%s op %s has negative accounting", m.Name, op.Name)
			}
			fw := op.Forward(2, kernels.StyleTF)
			for _, k := range fw {
				if k.FLOPs < 0 || k.Bytes <= 0 {
					t.Fatalf("%s op %s emits degenerate kernel %+v", m.Name, op.Name, k)
				}
			}
		}
		// Ops must be cached.
		if &m.Ops()[0] == &ops[0] {
			_ = ops
		}
	}
}

// --- numeric twin convergence ---

func TestNumericResNetLearns(t *testing.T) {
	rng := tensor.NewRNG(1)
	src := data.NewImageSource(rng, 1, 8, 8, 4, 0.3)
	net := NumericResNet(rng, 1, 8, 4)
	opt := newTwinOptimizer()
	var acc float64
	for i := 0; i < 120; i++ {
		b := src.Batch(16)
		acc = trainStep(net, opt, b.X, b.Labels)
	}
	if acc < 0.85 {
		t.Fatalf("ResNet twin accuracy %.2f", acc)
	}
}

func TestNumericInceptionLearns(t *testing.T) {
	rng := tensor.NewRNG(2)
	src := data.NewImageSource(rng, 1, 8, 8, 4, 0.3)
	net := NumericInception(rng, 1, 8, 4)
	opt := newTwinOptimizer()
	var acc float64
	for i := 0; i < 120; i++ {
		b := src.Batch(16)
		acc = trainStep(net, opt, b.X, b.Labels)
	}
	if acc < 0.85 {
		t.Fatalf("Inception twin accuracy %.2f", acc)
	}
}

func TestNumericSeq2SeqLearns(t *testing.T) {
	rng := tensor.NewRNG(3)
	src := data.NewTranslationSource(rng, 12, 6)
	net := NumericSeq2Seq(rng, 12, 12, 24)
	opt := newTwinOptimizer()
	var acc float64
	for i := 0; i < 400; i++ {
		b := src.Batch(16)
		acc = seqStep(net, opt, b.Src, b.Targets)
	}
	if acc < 0.8 {
		t.Fatalf("Seq2Seq twin accuracy %.2f", acc)
	}
}

func TestNumericTransformerLearns(t *testing.T) {
	rng := tensor.NewRNG(4)
	src := data.NewTranslationSource(rng, 12, 6)
	net := NumericTransformer(rng, 12, 16, 2)
	opt := newTwinOptimizer()
	var acc float64
	for i := 0; i < 400; i++ {
		b := src.Batch(16)
		acc = seqStep(net, opt, b.Src, b.Targets)
	}
	if acc < 0.8 {
		t.Fatalf("Transformer twin accuracy %.2f", acc)
	}
}

func TestNumericDetectorLearns(t *testing.T) {
	rng := tensor.NewRNG(6)
	net := NumericDetector(rng, 1, 8, 4)
	opt := newTwinOptimizer()
	// boxError is the mean squared error of the box head on a fresh batch.
	boxError := func() float64 {
		x, _ := detectionBatch(rng, 16)
		out := net.Forward(x, false)
		var sum float64
		for i := 0; i < 16; i++ {
			qx, qy := 0, 0
			for p := 0; p < 64; p++ {
				if x.Data()[i*64+p] == 1 {
					qx, qy = p%8/4, p/8/4
					break
				}
			}
			for j, c := range []int{2 + 4*qx, 2 + 4*qy} {
				d := float64(out.At(i, 4+j)) - float64(c)/8
				sum += d * d
			}
		}
		return sum / 32
	}
	firstBox := boxError()
	var acc float64
	for i := 0; i < 150; i++ {
		x, loss := detectionBatch(rng, 16)
		acc = graph.TrainStep(net, opt, x, loss, 0).Accuracy
	}
	if acc < 0.9 {
		t.Fatalf("detector classification accuracy %.2f", acc)
	}
	if box := boxError(); box >= firstBox/2 {
		t.Fatalf("box regression did not improve: %.4f -> %.4f", firstBox, box)
	}
}

func TestNumericWGANTrains(t *testing.T) {
	rng := tensor.NewRNG(7)
	gen, critic := NumericWGAN(rng, 4, 1, 4)
	optG := newTwinOptimizer()
	optC := newTwinOptimizer()
	// Real distribution: a fixed template plus small noise, in [-1, 1].
	tpl := tensor.RandUniform(rng, -0.5, 0.5, 1, 4, 4)
	realBatch := func(n int) *tensor.Tensor {
		x := tensor.New(n, 1, 4, 4)
		for i := 0; i < n; i++ {
			for j := 0; j < 16; j++ {
				x.Data()[i*16+j] = tpl.Data()[j] + 0.05*float32(rng.Norm())
			}
		}
		return x
	}
	var wFirst, wLast float32
	for i := 0; i < 300; i++ {
		w := WGANStep(gen, critic, optG, optC, realBatch(16), rng, 4, 0.1)
		if i == 20 {
			wFirst = w
		}
		wLast = w
	}
	// The Wasserstein estimate must shrink as the generator matches the
	// data distribution.
	if !(wLast < wFirst) {
		t.Fatalf("wasserstein estimate did not shrink: %.4f -> %.4f", wFirst, wLast)
	}
	// Generated samples should be near the template.
	z := tensor.RandNormal(rng, 0, 1, 8, 4)
	fake := gen.Forward(z, false)
	var mse float64
	for i := 0; i < 8; i++ {
		for j := 0; j < 16; j++ {
			d := float64(fake.Data()[i*16+j] - tpl.Data()[j])
			mse += d * d
		}
	}
	mse /= 8 * 16
	if mse > 0.3 {
		t.Fatalf("generator MSE to template %.3f", mse)
	}
}

func TestNumericA3CImproves(t *testing.T) {
	cfg := DefaultA3CConfig()
	cfg.Workers = 3
	cfg.Updates = 1500
	res := TrainA3C(cfg)
	if res.Updates != cfg.Workers*cfg.Updates {
		t.Fatalf("applied %d updates, want %d", res.Updates, cfg.Workers*cfg.Updates)
	}
	if res.MeanRewardLast <= res.MeanRewardFirst {
		t.Fatalf("A3C did not improve: %.4f -> %.4f", res.MeanRewardFirst, res.MeanRewardLast)
	}
}

// --- helpers ---

func newTwinOptimizer() optim.Optimizer { return optim.NewAdam(0.01) }

func trainStep(net *graph.Network, opt optim.Optimizer, x *tensor.Tensor, labels []int) float64 {
	return graph.TrainClassifierStep(net, opt, x, labels, 5).Accuracy
}

func seqStep(net *graph.Network, opt optim.Optimizer, x *tensor.Tensor, labels []int) float64 {
	return graph.TrainClassifierStep(net, opt, x, labels, 5).Accuracy
}

func TestNumericDeepSpeechCTCLearns(t *testing.T) {
	// The bidirectional CTC twin must drive the CTC loss down and decode
	// the unaligned label sequence from synthetic audio.
	rng := tensor.NewRNG(30)
	features, hidden, symbols := 8, 16, 5
	net := NumericDeepSpeechCTC(rng, features, hidden, symbols)
	opt := optim.NewAdam(0.01)

	// A fixed utterance: 10 frames, each frame's hot feature bin encodes
	// a symbol; the unaligned transcript drops repeats.
	T := 10
	frames := []int{1, 1, 2, 2, 2, 3, 3, 4, 4, 4}
	x := tensor.New(1, T, features)
	for ti, s := range frames {
		x.Set(2, 0, ti, s)
	}
	transcript := []int{1, 2, 3, 4}

	var first, last float32
	for i := 0; i < 250; i++ {
		loss := graph.TrainStep(net, opt, x, ctcLoss([][]int{transcript}), 5).Loss
		if i == 0 {
			first = loss
		}
		last = loss
	}
	if last >= first/4 {
		t.Fatalf("CTC twin did not converge: %.3f -> %.3f", first, last)
	}
	logits := net.Forward(x, false)
	decoded := layers.CTCGreedyDecode(logits.Reshape(T, symbols))
	if len(decoded) != len(transcript) {
		t.Fatalf("decoded %v, want %v", decoded, transcript)
	}
	for i := range transcript {
		if decoded[i] != transcript[i] {
			t.Fatalf("decoded %v, want %v", decoded, transcript)
		}
	}
}
