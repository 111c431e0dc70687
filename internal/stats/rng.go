// Package stats provides the probabilistic substrate for the SmartBadge
// reproduction: a deterministic seeded random number generator, the
// distributions used by the paper's stochastic models (exponential arrivals
// and service times, heavy-tailed idle periods), streaming moment
// accumulators, histograms with quantile queries (used for the off-line
// change-point threshold characterisation), and maximum-likelihood fitting
// helpers (used for the Figure 6 exponential fit).
//
// Everything is stdlib-only and fully deterministic for a fixed seed, which
// the simulator test suite relies on.
package stats

import "math"

// RNG is a small, fast, deterministic pseudo-random generator based on
// xoshiro256** seeded through splitmix64. It is not safe for concurrent use;
// the simulator owns one RNG per run (or derives independent streams with
// Split) so that runs are reproducible regardless of goroutine scheduling.
type RNG struct {
	s [4]uint64
}

// NewRNG returns a generator seeded deterministically from seed.
// Two RNGs created with the same seed produce identical streams.
func NewRNG(seed uint64) *RNG {
	r := &RNG{}
	sm := seed
	for i := range r.s {
		sm += 0x9e3779b97f4a7c15
		z := sm
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		r.s[i] = z ^ (z >> 31)
	}
	// xoshiro must not be seeded with all zeros; splitmix64 of any seed
	// cannot produce four zero words, but guard anyway.
	if r.s[0]|r.s[1]|r.s[2]|r.s[3] == 0 {
		r.s[0] = 1
	}
	return r
}

// Split derives a new, statistically independent generator from r.
// The derived stream is a deterministic function of r's current state,
// so Split is itself reproducible.
func (r *RNG) Split() *RNG {
	return NewRNG(r.Uint64() ^ 0xd1b54a32d192ed03)
}

// SplitAt derives the i-th member of a family of statistically independent
// streams from r's current state WITHOUT advancing r: it is a pure function
// of (state, i), so concurrent workers can each take their own stream from a
// shared base generator and the result is independent of scheduling order.
// This is the derivation every parallel Monte Carlo loop in the repository
// uses (see internal/parallel).
func (r *RNG) SplitAt(i uint64) *RNG {
	// Scramble the index through splitmix64, fold in the full state, and
	// reseed (NewRNG runs a second splitmix64 pass per word).
	z := i + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	seed := z ^ r.s[0] ^ rotl(r.s[1], 13) ^ rotl(r.s[2], 29) ^ rotl(r.s[3], 43)
	return NewRNG(seed)
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Clone returns an independent copy of r at its current state: both
// generators produce the same stream from here on, and advancing one does
// not affect the other. Used where the same sample sequence must be
// replayed (e.g. re-binning a histogram over identical data).
func (r *RNG) Clone() *RNG {
	c := *r
	return &c
}

// Uint64 returns the next 64 random bits.
func (r *RNG) Uint64() uint64 {
	result := rotl(r.s[1]*5, 7) * 9
	t := r.s[1] << 17
	r.s[2] ^= r.s[0]
	r.s[3] ^= r.s[1]
	r.s[1] ^= r.s[2]
	r.s[0] ^= r.s[3]
	r.s[2] ^= t
	r.s[3] = rotl(r.s[3], 45)
	return result
}

// Float64 returns a uniform sample in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform sample in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("stats: Intn called with n <= 0")
	}
	return int(r.Uint64() % uint64(n))
}

// Exp returns an exponential sample with the given rate (mean 1/rate).
// It panics if rate <= 0.
func (r *RNG) Exp(rate float64) float64 {
	if rate <= 0 {
		panic("stats: Exp called with rate <= 0")
	}
	u := r.Float64()
	// 1-u is in (0, 1], so the log is finite.
	return -math.Log(1-u) / rate
}

// UnitExp returns a unit-rate exponential sample, Exp(1) bit for bit: the
// same draw without the rate check and the division by 1 (x/1 == x), for
// loops that draw millions of them.
func (r *RNG) UnitExp() float64 {
	return -math.Log(1 - r.Float64())
}

// Pareto returns a Pareto(scale, shape) sample: x >= scale with
// P(X > x) = (scale/x)^shape. It panics if scale <= 0 or shape <= 0.
func (r *RNG) Pareto(scale, shape float64) float64 {
	if scale <= 0 || shape <= 0 {
		panic("stats: Pareto called with non-positive parameter")
	}
	u := r.Float64()
	return scale / math.Pow(1-u, 1/shape)
}

// Uniform returns a uniform sample in [a, b). It panics if b < a.
func (r *RNG) Uniform(a, b float64) float64 {
	if b < a {
		panic("stats: Uniform called with b < a")
	}
	return a + (b-a)*r.Float64()
}

// Norm returns a normal sample with the given mean and standard deviation,
// using the Box-Muller transform. It panics if sigma < 0.
func (r *RNG) Norm(mu, sigma float64) float64 {
	if sigma < 0 {
		panic("stats: Norm called with sigma < 0")
	}
	u1 := r.Float64()
	u2 := r.Float64()
	// Avoid log(0).
	if u1 <= 0 {
		u1 = math.SmallestNonzeroFloat64
	}
	z := math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
	return mu + sigma*z
}

// Perm returns a random permutation of [0, n) using Fisher-Yates.
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
