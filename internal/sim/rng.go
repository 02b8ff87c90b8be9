package sim

// RNG is a small, fast, deterministic pseudo-random number generator
// (xorshift64*). It is used for workload address perturbation and litmus
// timing jitter; determinism across runs with the same seed is required
// for reproducible experiments, so math/rand's global state is avoided.
type RNG struct {
	state uint64
}

// NewRNG returns a generator seeded with seed (0 is remapped).
func NewRNG(seed uint64) *RNG {
	if seed == 0 {
		seed = 0x9E3779B97F4A7C15
	}
	return &RNG{state: seed}
}

// Uint64 returns the next 64-bit pseudo-random value.
func (r *RNG) Uint64() uint64 {
	x := r.state
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	r.state = x
	return x * 0x2545F4914F6CDD1D
}

// Intn returns a pseudo-random int in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("sim: RNG.Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Int63n returns a pseudo-random int64 in [0, n).
func (r *RNG) Int63n(n int64) int64 {
	if n <= 0 {
		panic("sim: RNG.Int63n with non-positive n")
	}
	return int64(r.Uint64() % uint64(n))
}

// Float64 returns a pseudo-random float64 in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / float64(1<<53)
}

// Bool returns a pseudo-random boolean.
func (r *RNG) Bool() bool { return r.Uint64()&1 == 1 }

// Fork derives an independent generator; used to give each simulated
// thread its own stream without correlating with siblings.
func (r *RNG) Fork() *RNG {
	return NewRNG(r.Uint64() ^ 0xD1B54A32D192ED03)
}
