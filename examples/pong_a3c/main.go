// Pong A3C: the deep-reinforcement-learning benchmark trained for real.
//
// Asynchronous workers (goroutines, like the paper's A3C processing
// threads) each run their own Pong environment, compute actor-critic
// gradients locally, and apply them to a shared parameter set. Evaluation
// episodes are played at checkpoints, reproducing the rising game-score
// curve of the paper's Figure 2e.
package main

import (
	"fmt"
	"os"

	"tbd/internal/models"
)

func main() {
	cfg := models.DefaultA3CConfig()
	cfg.Workers = 4
	cfg.Updates = 2500
	cfg.Checkpoints = 10
	cfg.EvalEpisodeCap = 20000

	fmt.Printf("Training A3C on Pong: %d workers x %d updates (rollout %d, lr %g)\n",
		cfg.Workers, cfg.Updates, cfg.RolloutLen, cfg.LR)
	res := models.TrainA3C(cfg)

	fmt.Println("\nEvaluation game scores during training (agent - bot, capped episodes):")
	for _, p := range res.Curve {
		score := int(p.Value)
		bar := ""
		for i := -21; i < score; i++ {
			bar += "#"
		}
		fmt.Printf("  %3.0f%% trained: score %+3d %s\n", 100*p.FracDone, score, bar)
	}
	fmt.Printf("\nMean per-step reward: %.4f (first 10%%) -> %.4f (last 10%%)\n",
		res.MeanRewardFirst, res.MeanRewardLast)
	if res.MeanRewardLast <= res.MeanRewardFirst {
		fmt.Fprintln(os.Stderr, "pong_a3c: policy did not improve")
		os.Exit(1)
	}
	fmt.Println("pong_a3c: OK")
}
