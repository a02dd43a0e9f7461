// Translation: the machine-translation story of the paper in miniature.
//
// It trains the Seq2Seq (LSTM) and Transformer (attention) numeric twins
// on the same synthetic translation task — showing both learn it — and
// then uses the simulator to reproduce the paper's headline translation
// findings: NMT (TensorFlow) outruns Sockeye (MXNet) and reaches batch
// 128 where Sockeye stops at 64 (Observation 3), while the Transformer's
// attention layers sustain far higher GPU utilization than either LSTM
// implementation (Observation 5).
package main

import (
	"fmt"
	"os"
	"runtime"

	"tbd"
	"tbd/internal/data"
	"tbd/internal/graph"
	"tbd/internal/models"
	"tbd/internal/optim"
	"tbd/internal/tensor"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "translation:", err)
		os.Exit(1)
	}
}

func trainTwin(name string, net *graph.Network, src *data.TranslationSource, steps int) (float64, error) {
	opt := optim.NewAdam(0.01)
	var acc float64
	for i := 0; i < steps; i++ {
		b := src.Batch(16)
		acc = graph.TrainClassifierStep(net, opt, b.Src, b.Targets, 5).Accuracy
		if (i+1)%(steps/4) == 0 {
			fmt.Printf("  %-18s step %4d: token accuracy %.2f\n", name, i+1, acc)
		}
	}
	if acc < 0.7 {
		return acc, fmt.Errorf("%s failed to learn the task (accuracy %.2f)", name, acc)
	}
	return acc, nil
}

func run() error {
	tbd.SetEngineParallelism(runtime.NumCPU())
	rng := tensor.NewRNG(7)
	fmt.Println("== Training numeric twins on the synthetic translation task ==")
	src := data.NewTranslationSource(rng, 12, 6)
	if _, err := trainTwin("Seq2Seq (LSTM)", models.NumericSeq2Seq(rng, 12, 12, 24), src, 400); err != nil {
		return err
	}
	if _, err := trainTwin("Transformer", models.NumericTransformer(rng, 12, 16, 2), src, 400); err != nil {
		return err
	}

	fmt.Println("\n== Paper-scale comparison on IWSLT15 shapes (simulated, P4000) ==")
	fmt.Printf("%-24s %-7s %-14s %-10s %-10s\n", "Implementation", "Batch", "Throughput", "GPU util", "FP32 util")
	show := func(model, fw string, batch int) error {
		p, err := tbd.ProfileTraining(model, fw, "", batch)
		if err != nil {
			return err
		}
		fmt.Printf("%-24s %-7d %-14.1f %-10.1f %-10.1f\n",
			fmt.Sprintf("%s (%s)", p.Implementation, fw), batch, p.Throughput, 100*p.GPUUtil, 100*p.FP32Util)
		return nil
	}
	// The per-framework memory asymmetry: NMT reaches 128, Sockeye 64.
	if err := show("Seq2Seq", "TensorFlow", 128); err != nil {
		return err
	}
	if err := show("Seq2Seq", "MXNet", 64); err != nil {
		return err
	}
	if err := show("Transformer", "TensorFlow", 2048); err != nil {
		return err
	}
	if _, err := tbd.ProfileTraining("Seq2Seq", "CNTK", "", 32); err != nil {
		fmt.Printf("\n(as in Table 2: %v)\n", err)
	}
	fmt.Println("\ntranslation: OK")
	return nil
}
