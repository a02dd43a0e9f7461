package models

import (
	"math"
	"sync"

	"tbd/internal/atari"
	"tbd/internal/graph"
	"tbd/internal/layers"
	"tbd/internal/optim"
	"tbd/internal/tensor"
)

// WGANStep runs one WGAN training iteration on the numeric twin: a critic
// update on real and generated batches followed by a generator update,
// with weight clipping (the original Wasserstein constraint; the
// gradient-penalty variant is modeled at the kernel level in the
// paper-scale graph). It returns the critic's Wasserstein estimate
// mean(C(real)) - mean(C(fake)) before the update.
func WGANStep(gen, critic *graph.Network, optG, optC optim.Optimizer,
	real *tensor.Tensor, rng *tensor.RNG, latent int, clip float32) float32 {

	n := real.Dim(0)
	inv := 1 / float32(n)

	// Critic update: maximize mean(C(real)) - mean(C(fake)).
	optim.ZeroGrads(critic.Params())
	realScores := critic.Forward(real.Reshape(n, -1), true)
	wReal := realScores.Mean()
	critic.BackwardParams(tensor.Full(-inv, realScores.Shape()...)) // ascend on real

	z := tensor.RandNormal(rng, 0, 1, n, latent)
	fake := gen.Forward(z, false)
	fakeScores := critic.Forward(fake.Reshape(n, -1), true)
	wFake := fakeScores.Mean()
	critic.BackwardParams(tensor.Full(inv, fakeScores.Shape()...)) // descend on fake
	optC.Step(critic.Params())
	for _, p := range critic.Params() {
		for i, v := range p.Value.Data() {
			if v > clip {
				p.Value.Data()[i] = clip
			} else if v < -clip {
				p.Value.Data()[i] = -clip
			}
		}
	}

	// Generator update: maximize mean(C(G(z))).
	optim.ZeroGrads(gen.Params())
	optim.ZeroGrads(critic.Params())
	z = tensor.RandNormal(rng, 0, 1, n, latent)
	fake = gen.Forward(z, true)
	scores := critic.Forward(fake.Reshape(n, -1), true)
	gx := critic.Backward(tensor.Full(-inv, scores.Shape()...))
	gen.BackwardParams(gx.Reshape(fake.Shape()...))
	optG.Step(gen.Params())

	return wReal - wFake
}

// DeepSpeechCTCStep runs one CTC training step of the Deep Speech 2 twin:
// forward over [N, T, F] audio features, CTC loss against unaligned label
// sequences, backward, clip, update. It returns the mean CTC loss.
func DeepSpeechCTCStep(net *graph.Network, opt optim.Optimizer, x *tensor.Tensor, labels [][]int, clip float32) float32 {
	params := net.Params()
	optim.ZeroGrads(params)
	logits := net.Forward(x, true) // [N, T, V]
	loss, grad := layers.CTCLossBatch(logits, labels)
	net.BackwardParams(grad)
	if clip > 0 {
		optim.ClipGradNorm(params, clip)
	}
	opt.Step(params)
	return loss
}

// DetectorStep runs one multi-task step of the Faster R-CNN twin:
// classification cross-entropy plus box-center regression, jointly
// backpropagated through the shared trunk.
func DetectorStep(d *NumericDetector, opt optim.Optimizer, x *tensor.Tensor,
	clsLabels []int, boxTargets []float32) (clsLoss, boxLoss float32, acc float64) {

	optim.ZeroGrads(d.Params())
	cls, box := d.Forward(x, true)
	clsLoss, gCls := tensor.CrossEntropy(cls, clsLabels)
	boxLoss, gBox := MSELoss(box, boxTargets)
	d.Backward(gCls, gBox)
	opt.Step(d.Params())
	return clsLoss, boxLoss, tensor.Accuracy(cls, clsLabels)
}

// A3CConfig configures the asynchronous advantage actor-critic trainer.
type A3CConfig struct {
	Workers int
	// Updates is the number of gradient updates per worker.
	Updates int
	// RolloutLen is t_max, the steps per update.
	RolloutLen int
	Gamma      float32
	LR         float32
	EnvSize    int // Pong frame size (unused by the state-feature policy)
	Entropy    float32
	Seed       uint64
	// Checkpoints is the number of mid-training policy evaluations
	// recorded into the result curve (0 disables).
	Checkpoints int
	// EvalEpisodeCap bounds the evaluation episode length.
	EvalEpisodeCap int
	// EnvFactory builds each worker's environment (nil = Pong at
	// EnvSize). Use atari.NewBreakout for the second game.
	EnvFactory func(rng *tensor.RNG) atari.Env
}

// envFor builds a worker environment from the config.
func (cfg A3CConfig) envFor(rng *tensor.RNG) atari.Env {
	if cfg.EnvFactory != nil {
		return cfg.EnvFactory(rng)
	}
	return atari.NewPong(rng, cfg.EnvSize)
}

// DefaultA3CConfig returns a configuration that learns Pong's tracking
// policy in a few thousand updates.
func DefaultA3CConfig() A3CConfig {
	return A3CConfig{
		Workers: 4, Updates: 1500, RolloutLen: 40,
		Gamma: 0.95, LR: 1e-2, EnvSize: 16, Entropy: 0.01, Seed: 1,
	}
}

// A3CResult reports training progress.
type A3CResult struct {
	// MeanRewardFirst/Last are the mean per-step rewards over the first
	// and last tenth of updates, averaged across workers — the learning
	// signal behind Figure 2's Pong curve.
	MeanRewardFirst, MeanRewardLast float64
	// Updates is the total number of applied gradient updates.
	Updates int
	// Curve holds periodic evaluation scores (Pong game score, agent
	// minus bot, in [-21, 21]) when Checkpoints > 0.
	Curve []A3CPoint
}

// A3CPoint is one evaluation checkpoint.
type A3CPoint struct {
	// UpdateFrac is the fraction of total updates completed.
	UpdateFrac float64
	// Score is the evaluation episode's agent-minus-bot score.
	Score int
}

// TrainA3C trains the numeric A3C twin on Pong with asynchronous workers
// sharing one parameter set (Hogwild-style, like Mnih et al.): each
// goroutine runs its own environment, computes gradients on a local
// network copy, and applies them to the shared parameters under a lock.
func TrainA3C(cfg A3CConfig) A3CResult {
	shared := NumericA3CPolicy(tensor.NewRNG(cfg.Seed))
	opt := optim.NewRMSProp(cfg.LR)
	var mu sync.Mutex
	var totalUpdates int

	// Checkpoint evaluation: workers trigger an evaluation when they
	// cross an update threshold (run inline under the lock on a weight
	// snapshot taken without holding it longer than the copy).
	var curve []A3CPoint
	totalPlanned := cfg.Workers * cfg.Updates
	nextEval := totalPlanned + 1
	evalEvery := 0
	if cfg.Checkpoints > 0 {
		evalEvery = totalPlanned / cfg.Checkpoints
		if evalEvery == 0 {
			evalEvery = 1
		}
		nextEval = evalEvery
	}
	evalCap := cfg.EvalEpisodeCap
	if evalCap == 0 {
		evalCap = 60000
	}

	phase := cfg.Updates / 10
	if phase == 0 {
		phase = 1
	}
	firstRewards := make([]float64, cfg.Workers)
	lastRewards := make([]float64, cfg.Workers)

	var wg sync.WaitGroup
	for w := 0; w < cfg.Workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := tensor.NewRNG(cfg.Seed + uint64(w)*7919 + 1)
			env := cfg.envFor(rng)
			local := NumericA3CPolicy(rng)
			var firstSum, lastSum float64
			var firstN, lastN int

			for u := 0; u < cfg.Updates; u++ {
				// Pull shared weights.
				mu.Lock()
				copyParams(local.Params(), shared.Params())
				mu.Unlock()

				states, actions, rewards := rollout(env, local, rng, cfg.RolloutLen)
				grads := a3cGradients(local, states, actions, rewards, cfg.Gamma, cfg.Entropy)

				// Push gradients into the shared model.
				mu.Lock()
				for i, p := range shared.Params() {
					p.Grad.CopyFrom(grads[i])
				}
				optim.ClipGradNorm(shared.Params(), 5)
				opt.Step(shared.Params())
				optim.ZeroGrads(shared.Params())
				totalUpdates++
				var snapshot *graph.Network
				var frac float64
				if totalUpdates >= nextEval {
					nextEval += evalEvery
					snapshot = NumericA3CPolicy(rng)
					copyParams(snapshot.Params(), shared.Params())
					frac = float64(totalUpdates) / float64(totalPlanned)
				}
				mu.Unlock()
				if snapshot != nil {
					score := evalEpisode(snapshot, cfg, cfg.Seed+999, evalCap)
					mu.Lock()
					curve = append(curve, A3CPoint{UpdateFrac: frac, Score: score})
					mu.Unlock()
				}

				var stepReward float64
				for _, r := range rewards {
					stepReward += r
				}
				stepReward /= float64(len(rewards))
				if u < phase {
					firstSum += stepReward
					firstN++
				}
				if u >= cfg.Updates-phase {
					lastSum += stepReward
					lastN++
				}
			}
			firstRewards[w] = firstSum / float64(firstN)
			lastRewards[w] = lastSum / float64(lastN)
		}(w)
	}
	wg.Wait()

	res := A3CResult{Updates: totalUpdates, Curve: curve}
	for w := 0; w < cfg.Workers; w++ {
		res.MeanRewardFirst += firstRewards[w] / float64(cfg.Workers)
		res.MeanRewardLast += lastRewards[w] / float64(cfg.Workers)
	}
	return res
}

// evalEpisode plays one greedy-policy episode (capped at maxSteps) and
// returns the environment's outcome score.
func evalEpisode(policy *graph.Network, cfg A3CConfig, seed uint64, maxSteps int) int {
	rng := tensor.NewRNG(seed)
	env := cfg.envFor(rng)
	for i := 0; i < maxSteps && !env.Over(); i++ {
		st := env.StateVec()
		out := policy.Forward(tensor.FromSlice(append([]float32(nil), st...), 1, 6), false)
		best, bi := out.At(0, 0), 0
		for a := 1; a < 3; a++ {
			if v := out.At(0, a); v > best {
				best, bi = v, a
			}
		}
		env.Act(atari.Action(bi))
	}
	return env.Outcome()
}

func copyParams(dst, src []*layers.Param) {
	for i, p := range dst {
		p.Value.CopyFrom(src[i].Value)
	}
}

// rollout collects t_max steps from env under the local policy.
func rollout(env atari.Env, local *graph.Network, rng *tensor.RNG, tmax int) (states *tensor.Tensor, actions []int, rewards []float64) {
	states = tensor.New(tmax, 6)
	actions = make([]int, tmax)
	rewards = make([]float64, tmax)
	for t := 0; t < tmax; t++ {
		st := env.StateVec()
		copy(states.Data()[t*6:(t+1)*6], st)
		out := local.Forward(tensor.FromSlice(append([]float32(nil), st...), 1, 6), false)
		a := samplePolicy(out.Data()[:3], rng)
		actions[t] = a
		r, done := env.Act(atari.Action(a))
		rewards[t] = r
		if done {
			env.Restart()
		}
	}
	return states, actions, rewards
}

func samplePolicy(logits []float32, rng *tensor.RNG) int {
	// Softmax sample.
	m := logits[0]
	for _, v := range logits {
		if v > m {
			m = v
		}
	}
	var sum float64
	probs := make([]float64, len(logits))
	for i, v := range logits {
		probs[i] = math.Exp(float64(v - m))
		sum += probs[i]
	}
	u := rng.Float64() * sum
	for i, p := range probs {
		u -= p
		if u <= 0 {
			return i
		}
	}
	return len(logits) - 1
}

// a3cGradients computes actor-critic gradients for one rollout on the
// local network and returns per-parameter gradient tensors.
func a3cGradients(local *graph.Network, states *tensor.Tensor, actions []int, rewards []float64, gamma, entropy float32) []*tensor.Tensor {
	T := len(actions)
	optim.ZeroGrads(local.Params())
	out := local.Forward(states, true) // [T, 4]: logits 0..2, value 3

	// Discounted returns (bootstrap from the last value estimate).
	returns := make([]float32, T)
	run := out.At(T-1, 3)
	for t := T - 1; t >= 0; t-- {
		run = float32(rewards[t]) + gamma*run
		returns[t] = run
	}

	gout := tensor.New(T, 4)
	invT := 1 / float32(T)
	for t := 0; t < T; t++ {
		logits := []float32{out.At(t, 0), out.At(t, 1), out.At(t, 2)}
		probs := softmax3(logits)
		v := out.At(t, 3)
		adv := returns[t] - v
		// Policy gradient: (π - onehot(a)) * advantage.
		var h float64 // entropy for the bonus term
		for i := 0; i < 3; i++ {
			if probs[i] > 1e-8 {
				h -= float64(probs[i]) * math.Log(float64(probs[i]))
			}
		}
		for i := 0; i < 3; i++ {
			g := probs[i] * adv
			if i == actions[t] {
				g -= adv
			}
			// Entropy bonus gradient: -β dH/dlogit = β π (logπ + H).
			if probs[i] > 1e-8 {
				g += entropy * probs[i] * (float32(math.Log(float64(probs[i]))) + float32(h))
			}
			gout.Set(g*invT, t, i)
		}
		// Value loss 0.5*(R - V)²: dV = (V - R).
		gout.Set(0.5*(v-returns[t])*invT, t, 3)
	}
	local.BackwardParams(gout)

	grads := make([]*tensor.Tensor, 0, len(local.Params()))
	for _, p := range local.Params() {
		grads = append(grads, p.Grad.Clone())
	}
	return grads
}

func softmax3(logits []float32) [3]float32 {
	m := logits[0]
	for _, v := range logits {
		if v > m {
			m = v
		}
	}
	var sum float64
	var e [3]float64
	for i, v := range logits {
		e[i] = math.Exp(float64(v - m))
		sum += e[i]
	}
	var out [3]float32
	for i := range out {
		out[i] = float32(e[i] / sum)
	}
	return out
}
