// Package atari implements a deterministic Pong environment standing in
// for the Atari 2600 emulator that the paper's A3C benchmark trains on.
// Observations are stacks of four grayscale frames (4×84×84 by default,
// matching Table 3), rewards are ±1 per point, and an episode ends when
// either side reaches 21 points — so the Figure 2 game-score axis
// (-21…+21) is reproduced exactly.
package atari

import (
	"tbd/internal/tensor"
)

// Action is one of Pong's three meaningful controls.
type Action int

// Pong actions.
const (
	Stay Action = iota //tbd:api the passive policy the pong tests score the tracking agent against
	Up
	Down
)

// Pong is a two-paddle Pong game. The agent controls the right paddle;
// a tracking bot with bounded speed controls the left.
type Pong struct {
	rng  *tensor.RNG
	size int // rendered frame side length

	// Continuous state in [0,1]² with x to the right.
	ballX, ballY float64
	velX, velY   float64
	agentY       float64 // right paddle center
	botY         float64 // left paddle center

	agentScore, botScore int
	frames               [][]float32 // last 4 rendered frames
}

// Physics constants (per step, in field units).
const (
	paddleHalf = 0.10
	paddleStep = 0.05
	botStep    = 0.028 // slower than the ball drift, so the bot is beatable
	ballSpeed  = 0.035
	winScore   = 21
)

// NewPong creates a Pong environment rendering size×size frames
// (84 for the paper's observation shape; smaller for fast tests).
func NewPong(rng *tensor.RNG, size int) *Pong {
	p := &Pong{rng: rng, size: size}
	p.Reset()
	return p
}

// Reset starts a new episode and returns the initial observation.
func (p *Pong) Reset() *tensor.Tensor {
	p.agentScore, p.botScore = 0, 0
	p.agentY, p.botY = 0.5, 0.5
	p.serve()
	p.frames = nil
	f := p.render()
	for i := 0; i < 4; i++ {
		p.frames = append(p.frames, f)
	}
	return p.observation()
}

// serve re-centers the ball with a randomized direction.
func (p *Pong) serve() {
	p.ballX, p.ballY = 0.5, 0.5
	dir := 1.0
	if p.rng.Intn(2) == 0 {
		dir = -1
	}
	p.velX = ballSpeed * dir
	p.velY = ballSpeed * (p.rng.Float64() - 0.5)
}

// Score returns the current (agent, bot) points.
func (p *Pong) Score() (agent, bot int) { return p.agentScore, p.botScore }

// Done reports whether the episode has ended.
func (p *Pong) Done() bool { return p.agentScore >= winScore || p.botScore >= winScore }

// Step advances one frame under the agent action, returning the next
// observation, the reward earned this step (+1 agent point, -1 bot
// point), and whether the episode ended.
func (p *Pong) Step(a Action) (obs *tensor.Tensor, reward float64, done bool) {
	switch a {
	case Up:
		p.agentY -= paddleStep
	case Down:
		p.agentY += paddleStep
	}
	p.agentY = clamp(p.agentY, paddleHalf, 1-paddleHalf)

	// Bot tracks the ball with bounded speed.
	if p.botY < p.ballY-0.01 {
		p.botY += botStep
	} else if p.botY > p.ballY+0.01 {
		p.botY -= botStep
	}
	p.botY = clamp(p.botY, paddleHalf, 1-paddleHalf)

	p.ballX += p.velX
	p.ballY += p.velY
	// Wall bounces.
	if p.ballY < 0 {
		p.ballY = -p.ballY
		p.velY = -p.velY
	}
	if p.ballY > 1 {
		p.ballY = 2 - p.ballY
		p.velY = -p.velY
	}
	// Paddle planes at x=0.04 (bot) and x=0.96 (agent).
	if p.ballX <= 0.04 && p.velX < 0 {
		if diff := p.ballY - p.botY; diff > -paddleHalf && diff < paddleHalf {
			p.velX = -p.velX
			p.velY += diff * 0.12
			p.ballX = 0.04
		} else {
			p.agentScore++
			reward = 1
			p.serve()
		}
	}
	if p.ballX >= 0.96 && p.velX > 0 {
		if diff := p.ballY - p.agentY; diff > -paddleHalf && diff < paddleHalf {
			p.velX = -p.velX
			p.velY += diff * 0.12
			p.ballX = 0.96
		} else {
			p.botScore++
			reward = -1
			p.serve()
		}
	}

	p.frames = append(p.frames[1:], p.render())
	return p.observation(), reward, p.Done()
}

// render draws the field into a size×size grayscale frame.
func (p *Pong) render() []float32 {
	s := p.size
	f := make([]float32, s*s)
	draw := func(x, y float64) (int, int) {
		cx := int(x * float64(s-1))
		cy := int(y * float64(s-1))
		return clampInt(cx, 0, s-1), clampInt(cy, 0, s-1)
	}
	// Ball: 2x2 blob.
	bx, by := draw(p.ballX, p.ballY)
	for dy := 0; dy < 2; dy++ {
		for dx := 0; dx < 2; dx++ {
			x, y := clampInt(bx+dx, 0, s-1), clampInt(by+dy, 0, s-1)
			f[y*s+x] = 1
		}
	}
	// Paddles: vertical bars near each edge.
	half := int(paddleHalf * float64(s))
	_, ay := draw(0, p.agentY)
	_, oy := draw(0, p.botY)
	for d := -half; d <= half; d++ {
		if y := ay + d; y >= 0 && y < s {
			f[y*s+(s-2)] = 1
		}
		if y := oy + d; y >= 0 && y < s {
			f[y*s+1] = 1
		}
	}
	return f
}

// observation stacks the last 4 frames as [4, size, size].
func (p *Pong) observation() *tensor.Tensor {
	s := p.size
	obs := tensor.New(4, s, s)
	for i, f := range p.frames {
		copy(obs.Data()[i*s*s:(i+1)*s*s], f)
	}
	return obs
}

// State exposes the underlying continuous state for compact function
// approximators (the numeric A3C twin can learn from it far faster than
// from pixels while the pixel observation exercises the full path).
func (p *Pong) State() []float32 {
	return []float32{
		float32(p.ballX), float32(p.ballY),
		float32(p.velX / ballSpeed), float32(p.velY / ballSpeed),
		float32(p.agentY), float32(p.botY),
	}
}

func clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

func clampInt(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
