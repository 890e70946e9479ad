package sim

import "math"

// RNG is a small, fast, deterministic pseudo-random generator (splitmix64
// core). The simulator cannot use math/rand's global state: experiments must
// be exactly reproducible from a seed, and independent workload components
// need independent streams that do not perturb each other when one component
// draws more values.
type RNG struct {
	state uint64
}

// NewRNG returns a generator seeded with seed. Two RNGs with the same seed
// produce identical streams.
func NewRNG(seed uint64) *RNG {
	return &RNG{state: seed}
}

// Split derives an independent child stream; drawing from the child does not
// affect the parent's sequence beyond this single call.
func (r *RNG) Split() *RNG {
	return &RNG{state: r.Uint64() ^ 0x9e3779b97f4a7c15}
}

// Uint64 returns the next 64 uniformly distributed bits.
func (r *RNG) Uint64() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Float64 returns a uniform value in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform value in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("sim: Intn with n <= 0")
	}
	return int(r.Uint64() % uint64(n))
}

// NormFloat64 returns a standard normal variate (Box–Muller).
func (r *RNG) NormFloat64() float64 {
	for {
		u := r.Float64()
		if u <= 0 {
			continue
		}
		v := r.Float64()
		return math.Sqrt(-2*math.Log(u)) * math.Cos(2*math.Pi*v)
	}
}

// LogNormal returns a log-normal variate with the given median and sigma
// (shape parameter of the underlying normal). Service-time and object-size
// distributions are heavy-tailed in real systems; log-normal is the standard
// parametric stand-in.
func (r *RNG) LogNormal(median, sigma float64) float64 {
	return median * math.Exp(sigma*r.NormFloat64())
}

// ExpFloat64 returns an exponential variate with mean 1.
func (r *RNG) ExpFloat64() float64 {
	for {
		u := r.Float64()
		if u > 0 {
			return -math.Log(u)
		}
	}
}

// Jitter returns base scaled by a uniform factor in [1-amp, 1+amp]. It is the
// standard way workloads perturb per-quantum costs so invocations differ.
func (r *RNG) Jitter(base, amp float64) float64 {
	return base * (1 + amp*(2*r.Float64()-1))
}
