// Package stats provides the small numeric substrate shared by the rest of
// the repository: a deterministic random number generator, summary
// statistics, linear regression, one-dimensional minimization, and numeric
// quadrature.
//
// Everything here is intentionally self-contained (stdlib only) and
// deterministic: all stochastic components of the repository draw from RNG
// seeded explicitly, so experiments and tests are reproducible bit-for-bit.
// Batched draws keep that: RNG.PoissonCounts draws a whole chunk of
// Poisson counts from exactly the variates that one RNG.PoissonL call per
// count would use.
package stats

import "math"

// RNG is a deterministic pseudo-random number generator based on the
// SplitMix64 / xoshiro256** construction. It is not cryptographically
// secure; it exists so that Monte Carlo experiments are reproducible and
// cheap. The zero value is not usable; construct with NewRNG.
type RNG struct {
	s [4]uint64
}

// NewRNG returns a generator seeded from seed via SplitMix64, which
// guarantees a well-mixed internal state even for small or structured seeds.
func NewRNG(seed uint64) *RNG {
	r := Seeded(seed)
	return &r
}

// Seeded returns the same generator as NewRNG by value. Hot loops that
// create one short-lived stream per (wafer, row, chunk) — thousands per
// simulation — use it to keep the generator on the stack instead of
// paying one heap allocation per stream.
func Seeded(seed uint64) RNG {
	var r RNG
	sm := seed
	next := func() uint64 {
		sm += 0x9e3779b97f4a7c15
		z := sm
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		return z ^ (z >> 31)
	}
	for i := range r.s {
		r.s[i] = next()
	}
	// A state of all zeros would be absorbing; SplitMix64 cannot produce
	// four consecutive zeros, but guard anyway.
	if r.s[0]|r.s[1]|r.s[2]|r.s[3] == 0 {
		r.s[0] = 1
	}
	return r
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 uniformly distributed bits.
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

// Float64 returns a uniformly distributed value in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniformly distributed integer in [0, n). It panics if
// n <= 0, matching the contract of math/rand.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("stats: Intn called with non-positive n")
	}
	// Rejection sampling to avoid modulo bias.
	max := uint64(n)
	limit := (^uint64(0) / max) * max
	for {
		v := r.Uint64()
		if v < limit {
			return int(v % max)
		}
	}
}

// Range returns a uniformly distributed value in [lo, hi).
func (r *RNG) Range(lo, hi float64) float64 {
	return lo + (hi-lo)*r.Float64()
}

// Norm returns a normally distributed value with the given mean and
// standard deviation, using the Marsaglia polar method.
func (r *RNG) Norm(mean, stddev float64) float64 {
	for {
		u := 2*r.Float64() - 1
		v := 2*r.Float64() - 1
		s := u*u + v*v
		if s > 0 && s < 1 {
			return mean + stddev*u*math.Sqrt(-2*math.Log(s)/s)
		}
	}
}

// Exp returns an exponentially distributed value with the given rate
// (mean 1/rate). It panics if rate <= 0.
func (r *RNG) Exp(rate float64) float64 {
	if rate <= 0 {
		panic("stats: Exp called with non-positive rate")
	}
	return -math.Log(1-r.Float64()) / rate
}

// Poisson returns a Poisson-distributed count with the given mean. For
// small means it uses Knuth's product method; for large means a normal
// approximation with continuity correction, which is ample for the defect
// counts this repository simulates.
func (r *RNG) Poisson(mean float64) int {
	if mean <= 0 {
		return 0
	}
	if mean < 30 {
		return r.poissonKnuth(math.Exp(-mean))
	}
	return r.poissonNormal(mean)
}

// PoissonL is Poisson with the caller supplying expNegMean = exp(-mean).
// Simulation kernels whose rate is constant across many draws (every
// trial of a defect simulation, every die of an unclustered wafer) hoist
// the exp out of the loop and pay only the product loop per draw. The
// draw sequence — and therefore the stream state — is bit-identical to
// Poisson(mean) provided expNegMean == math.Exp(-mean).
func (r *RNG) PoissonL(mean, expNegMean float64) int {
	if mean <= 0 {
		return 0
	}
	if mean < 30 {
		return r.poissonKnuth(expNegMean)
	}
	return r.poissonNormal(mean)
}

// PoissonCounts draws n Poisson counts with the given mean and returns
// how many were zero and their total. The variates it uses, and the
// state it leaves r in, are exactly those of n PoissonL(mean, expNegMean)
// calls, provided expNegMean == math.Exp(-mean).
//
// For 0 < mean < 30 it runs Knuth's product method as one loop over
// variates, with the generator state in locals. A count ends on the
// variate that takes the product to l or below, and since the product
// and l are non-negative floats that test is an integer compare of their
// bits; the product is reset to 1 by selecting on that compare rather
// than by branching, so the loop does not stall on a mispredicted branch
// once per count. Each count c uses c+1 variates, so the total is the
// variate count less n. Other means run PoissonL itself.
func (r *RNG) PoissonCounts(n int, mean, expNegMean float64) (zeros, sum int64) {
	if n <= 0 {
		return 0, 0
	}
	if !(mean > 0 && mean < 30 && expNegMean > 0) {
		for i := 0; i < n; i++ {
			k := r.PoissonL(mean, expNegMean)
			if k == 0 {
				zeros++
			}
			sum += int64(k)
		}
		return zeros, sum
	}
	const oneBits = 0x3ff0000000000000 // math.Float64bits(1)
	lb := math.Float64bits(expNegMean)
	s0, s1, s2, s3 := r.s[0], r.s[1], r.s[2], r.s[3]
	p := 1.0
	first := uint64(1) // 1 on a count's first variate
	left := uint64(n)  // counts still to end
	for left != 0 {
		// Uint64 and Float64, inlined on the local state.
		u := rotl(s1*5, 7) * 9
		t := s1 << 17
		s2 ^= s0
		s3 ^= s1
		s1 ^= s2
		s0 ^= s3
		s2 ^= t
		s3 = rotl(s3, 45)
		p *= float64(int64(u>>11)) / (1 << 53)

		pb := math.Float64bits(p)
		end := (pb - lb - 1) >> 63 // 1 when p <= l: this variate ends a count
		zeros += int64(end & first)
		sum += int64(end ^ 1)
		first = end
		left -= end
		p = math.Float64frombits(pb ^ (pb^oneBits)&-end)
	}
	r.s[0], r.s[1], r.s[2], r.s[3] = s0, s1, s2, s3
	return zeros, sum
}

// poissonKnuth is Knuth's product method, parameterized by l = exp(-mean).
func (r *RNG) poissonKnuth(l float64) int {
	k := 0
	p := 1.0
	for {
		p *= r.Float64()
		if p <= l {
			return k
		}
		k++
	}
}

// poissonNormal is the large-mean normal approximation with continuity
// correction.
func (r *RNG) poissonNormal(mean float64) int {
	n := r.Norm(mean, math.Sqrt(mean))
	if n < 0 {
		return 0
	}
	return int(n + 0.5)
}

// Gamma returns a Gamma(shape, scale) variate using the Marsaglia–Tsang
// method (with Ahrens-style boosting for shape < 1). It panics if shape or
// scale is non-positive. Gamma mixing of a Poisson rate yields the negative
// binomial defect model used by internal/yield.
func (r *RNG) Gamma(shape, scale float64) float64 {
	if shape <= 0 || scale <= 0 {
		panic("stats: Gamma requires positive shape and scale")
	}
	if shape < 1 {
		// Boost: Gamma(a) = Gamma(a+1) * U^(1/a).
		u := r.Float64()
		for u == 0 {
			u = r.Float64()
		}
		return r.Gamma(shape+1, scale) * math.Pow(u, 1/shape)
	}
	d := shape - 1.0/3.0
	c := 1 / math.Sqrt(9*d)
	for {
		x := r.Norm(0, 1)
		v := 1 + c*x
		if v <= 0 {
			continue
		}
		v = v * v * v
		u := r.Float64()
		if u < 1-0.0331*x*x*x*x {
			return d * v * scale
		}
		if u > 0 && math.Log(u) < 0.5*x*x+d*(1-v+math.Log(v)) {
			return d * v * scale
		}
	}
}

// Perm returns a pseudo-random permutation of the integers [0, n).
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

// jumpPoly is the xoshiro256** jump polynomial: applying it advances the
// generator by exactly 2^128 steps of the underlying cycle.
var jumpPoly = [4]uint64{0x180ec6d33cfd0aba, 0xd5a61266f0c9392c, 0xa9582618e03fc9aa, 0x39abdc4529b1661c}

// Jump advances r by 2^128 steps in O(256) time. Successive Jump calls
// partition the generator's 2^256−1 cycle into non-overlapping blocks of
// 2^128 values each: a stream captured before a Jump and the stream after
// it can never collide as long as each draws fewer than 2^128 values —
// a structural guarantee, not a probabilistic one.
func (r *RNG) Jump() {
	var s0, s1, s2, s3 uint64
	for _, jp := range jumpPoly {
		for b := 0; b < 64; b++ {
			if jp&(1<<uint(b)) != 0 {
				s0 ^= r.s[0]
				s1 ^= r.s[1]
				s2 ^= r.s[2]
				s3 ^= r.s[3]
			}
			r.Uint64()
		}
	}
	r.s[0], r.s[1], r.s[2], r.s[3] = s0, s1, s2, s3
}

// SplitN returns k generators occupying consecutive 2^128-length blocks
// of r's cycle, and advances r past all of them. Stream i is the state of
// r after i jumps, so the layout depends only on r's state and k — the
// deterministic sub-stream construction the parallel engine and the
// sharded Monte Carlo job engine use to make results bit-identical across
// worker and shard counts. The returned streams are guaranteed
// non-overlapping provided each draws fewer than 2^128 values.
//
// Boundary behavior is explicit for the sharding path: k == 0 returns nil
// and leaves r untouched (a resumed run with no pending shards needs no
// streams), k == 1 returns a single stream holding r's pre-call state and
// advances r one jump past it (so a later SplitN continues on disjoint
// blocks). It panics if k < 0.
func (r *RNG) SplitN(k int) []*RNG {
	if k < 0 {
		panic("stats: SplitN requires non-negative k")
	}
	if k == 0 {
		return nil
	}
	out := make([]*RNG, k)
	for i := 0; i < k; i++ {
		c := *r
		out[i] = &c
		r.Jump()
	}
	return out
}

// StreamSeed mixes a base seed with a path of identifiers (wafer index,
// row index, chunk number, …) into a new seed via SplitMix64 steps, for
// keyed sub-streams where the stream count is not known up front. The
// mixing is deterministic and avalanching, so adjacent ids give unrelated
// seeds; disjointness of the resulting generators is probabilistic, which
// is ample for the statistical workloads here.
func StreamSeed(seed uint64, ids ...uint64) uint64 {
	z := seed
	mix := func(v uint64) {
		z += v + 0x9e3779b97f4a7c15
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		z ^= z >> 31
	}
	mix(0) // decorrelate from the raw seed even with no ids
	for _, id := range ids {
		mix(id)
	}
	return z
}
