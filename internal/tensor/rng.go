package tensor

import "math"

// RNG is a small, fast, deterministic pseudo-random generator
// (splitmix64-seeded xorshift128+). Every stochastic component of the suite
// takes an explicit *RNG so experiments are reproducible bit-for-bit.
type RNG struct {
	s0, s1 uint64
	// spare holds a cached second Gaussian sample from Box-Muller.
	spare    float64
	hasSpare bool
}

// NewRNG returns a generator seeded deterministically from seed.
func NewRNG(seed uint64) *RNG {
	r := &RNG{}
	// splitmix64 to spread the seed over both words.
	z := seed
	for i := 0; i < 2; i++ {
		z += 0x9e3779b97f4a7c15
		x := z
		x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
		x = (x ^ (x >> 27)) * 0x94d049bb133111eb
		x ^= x >> 31
		if i == 0 {
			r.s0 = x
		} else {
			r.s1 = x
		}
	}
	if r.s0 == 0 && r.s1 == 0 {
		r.s1 = 1
	}
	return r
}

// Uint64 returns the next 64 random bits.
func (r *RNG) Uint64() uint64 {
	x, y := r.s0, r.s1
	r.s0 = y
	x ^= x << 23
	x ^= x >> 17
	x ^= y ^ (y >> 26)
	r.s1 = x
	return x + y
}

// Float64 returns a uniform sample in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Float32 returns a uniform sample in [0, 1).
func (r *RNG) Float32() float32 { return float32(r.Float64()) }

// Intn returns a uniform sample in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("tensor: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Norm returns a standard normal sample via Box-Muller.
func (r *RNG) Norm() float64 {
	if r.hasSpare {
		r.hasSpare = false
		return r.spare
	}
	u, v, s := r.polarPair()
	m := math.Sqrt(-2 * math.Log(s) / s)
	r.spare = v * m
	r.hasSpare = true
	return u * m
}

// polarPair draws the uniform pair one Norm pair is made from: a point
// inside the unit circle, and s = u² + v².
func (r *RNG) polarPair() (u, v, s float64) {
	for {
		u = 2*r.Float64() - 1
		v = 2*r.Float64() - 1
		s = u*u + v*v
		if s > 0 && s < 1 {
			return u, v, s
		}
	}
}

// SkipNorm advances r exactly as k calls to Norm would, without the
// logarithm and square root of the pairs it discards.
func (r *RNG) SkipNorm(k int) {
	if k > 0 && r.hasSpare {
		r.hasSpare = false
		k--
	}
	for ; k > 1; k -= 2 {
		r.polarPair()
	}
	if k == 1 {
		r.Norm()
	}
}

// Perm returns a random permutation of [0, n).
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// RandUniform fills a new tensor with uniform samples in [lo, hi).
func RandUniform(r *RNG, lo, hi float32, shape ...int) *Tensor {
	t := New(shape...)
	for i := range t.data {
		t.data[i] = lo + (hi-lo)*r.Float32()
	}
	return t
}

// RandNormal fills a new tensor with Gaussian samples N(mean, std²).
func RandNormal(r *RNG, mean, std float32, shape ...int) *Tensor {
	t := New(shape...)
	for i := range t.data {
		t.data[i] = mean + std*float32(r.Norm())
	}
	return t
}

// XavierInit returns Glorot-uniform initialized weights for a layer with the
// given fan-in and fan-out.
func XavierInit(r *RNG, fanIn, fanOut int, shape ...int) *Tensor {
	limit := float32(math.Sqrt(6 / float64(fanIn+fanOut)))
	return RandUniform(r, -limit, limit, shape...)
}

// HeInit returns He-normal initialized weights for ReLU networks.
func HeInit(r *RNG, fanIn int, shape ...int) *Tensor {
	std := float32(math.Sqrt(2 / float64(fanIn)))
	return RandNormal(r, 0, std, shape...)
}
