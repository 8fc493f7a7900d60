package sim

import "math"

// RNG is a small, fast, deterministic random source (splitmix64 core).
// It is deliberately independent of math/rand so that simulation results
// are stable across Go releases.
type RNG struct {
	state uint64
	// Box-Muller spare for NormFloat64, kept as the polar pair's v and s:
	// its value v·polarScale(s) is computed only when it is drawn.
	spareV, spareS float64
	hasSpare       bool
}

// NormBound bounds |NormFloat64()|. The polar method's u and v are
// multiples of 2⁻⁵² in (-1, 1), so an accepted s = u² + v² is at least
// 2⁻¹⁰⁴, and |u·polarScale(s)| ≤ sqrt(-2 ln s) ≤ sqrt(208 ln 2) ≈ 12.007;
// the rest is margin for rounding.
const NormBound = 12.1

// NewRNG returns a generator seeded with seed. Seed 0 is remapped so that
// the all-zero state cannot occur.
func NewRNG(seed uint64) *RNG {
	r := new(RNG)
	r.Seed(seed)
	return r
}

// Seed puts the generator back to what NewRNG(seed) returns, in place.
func (r *RNG) Seed(seed uint64) {
	if seed == 0 {
		seed = 0x9E3779B97F4A7C15
	}
	*r = RNG{state: seed}
}

// Uint64 returns the next 64 random bits.
func (r *RNG) Uint64() uint64 {
	r.state += 0x9E3779B97F4A7C15
	z := r.state
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// Float64 returns a uniform value in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform value in [0, n). n must be positive.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("sim: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Range returns a uniform float in [lo, hi).
func (r *RNG) Range(lo, hi float64) float64 {
	return lo + (hi-lo)*r.Float64()
}

// DurationRange returns a uniform duration in [lo, hi).
func (r *RNG) DurationRange(lo, hi Duration) Duration {
	if hi <= lo {
		return lo
	}
	return lo + Duration(r.Uint64()%uint64(hi-lo))
}

// NormFloat64 returns a standard normal variate (Box-Muller transform,
// polar form). Each call pays one Log and one Sqrt.
func (r *RNG) NormFloat64() float64 {
	if r.hasSpare {
		r.hasSpare = false
		return r.spareV * polarScale(r.spareS)
	}
	u := r.polarPair()
	return u * polarScale(r.spareS)
}

// SkipNorm advances the generator past one NormFloat64 draw without
// computing it: it consumes exactly the uniforms NormFloat64 would and
// leaves the same spare, so the draws after it are unchanged.
func (r *RNG) SkipNorm() {
	if r.hasSpare {
		r.hasSpare = false
		return
	}
	r.polarPair()
}

// polarPair draws a point (u, v) uniform in the unit disc, rejecting the
// origin, keeps v and s = u² + v² as the spare, and returns u.
func (r *RNG) polarPair() float64 {
	for {
		u := 2*r.Float64() - 1
		v := 2*r.Float64() - 1
		s := u*u + v*v
		if s > 0 && s < 1 {
			r.spareV, r.spareS, r.hasSpare = v, s, true
			return u
		}
	}
}

// polarScale is the polar method's factor for an accepted s.
func polarScale(s float64) float64 { return math.Sqrt(-2 * math.Log(s) / s) }

// Gaussian returns a normal variate with the given mean and standard
// deviation.
func (r *RNG) Gaussian(mean, stddev float64) float64 {
	return mean + stddev*r.NormFloat64()
}

// Fork returns an independent RNG derived from this one. Useful to give
// each component its own stream so adding a component does not perturb the
// draws of the others.
func (r *RNG) Fork() *RNG {
	f := new(RNG)
	r.ForkInto(f)
	return f
}

// ForkInto reseeds f, in place, as the RNG Fork would return.
func (r *RNG) ForkInto(f *RNG) { f.Seed(r.Uint64() | 1) }

// DeriveSeed maps a (base seed, label) pair to an independent stream seed:
// the label is FNV-1a-hashed, XORed into the seed, and passed through the
// splitmix64 finalizer. The result depends only on its inputs, so callers
// scheduling labeled work concurrently (e.g. one experiment per goroutine)
// get the same streams regardless of execution order.
func DeriveSeed(seed uint64, label string) uint64 {
	const (
		fnvOffset = 0xCBF29CE484222325
		fnvPrime  = 0x100000001B3
	)
	h := uint64(fnvOffset)
	for i := 0; i < len(label); i++ {
		h ^= uint64(label[i])
		h *= fnvPrime
	}
	z := seed ^ h
	z += 0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	z ^= z >> 31
	if z == 0 {
		z = 0x9E3779B97F4A7C15
	}
	return z
}
