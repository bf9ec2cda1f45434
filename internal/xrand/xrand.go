// Package xrand provides deterministic random-variate generation for the
// simulator: exponential, Poisson, lognormal, uniform and bounded-Pareto
// draws, plus an open-loop Poisson arrival process. Every source is seeded
// explicitly so that experiments are reproducible.
package xrand

import (
	"math"
	"math/rand"
)

// Source is a seeded random variate generator: a math/rand.Rand over the
// in-package copy of math/rand's source (alfg), so it draws exactly what
// rand.New(rand.NewSource(seed)) draws, plus the distributions the
// workload and service models need.
type Source struct {
	r *rand.Rand
}

// New returns a Source seeded with the given seed.
func New(seed int64) *Source {
	g := new(alfg)
	g.Seed(seed)
	return &Source{r: rand.New(g)}
}

// Reseed restarts the source at seed, leaving it exactly as New(seed)
// would: a loop can reuse one source for many seeded streams instead of
// allocating a new one per stream.
func (s *Source) Reseed(seed int64) { s.r.Seed(seed) }

// Fork derives an independent child source from this one. Use it to give
// each simulated entity its own stream so that adding entities does not
// perturb the draws of others.
func (s *Source) Fork() *Source {
	return New(s.r.Int63())
}

// StreamSeed derives the seed of stream i from a root seed. Stream 0 is the
// root seed itself, so single-stream consumers reproduce the unstreamed
// run bit for bit; streams i > 0 are SplitMix64 outputs, which are well
// distributed even for adjacent roots and indices. Unlike Fork, the
// derivation is positional — stream i's seed depends only on (root, i), so
// replications can be claimed by concurrent workers in any order without
// perturbing each other's draws.
func StreamSeed(root int64, i int) int64 {
	if i == 0 {
		return root
	}
	return int64(splitmix64(uint64(root) + uint64(i)*0x9e3779b97f4a7c15))
}

// splitmix64 is the finalizer of the SplitMix64 generator (Steele et al.,
// "Fast splittable pseudorandom number generators", OOPSLA 2014).
func splitmix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Float64 returns a uniform draw in [0, 1).
func (s *Source) Float64() float64 { return s.r.Float64() }

// Intn returns a uniform draw in [0, n).
func (s *Source) Intn(n int) int { return s.r.Intn(n) }

// Int63 returns a non-negative uniform 63-bit integer.
func (s *Source) Int63() int64 { return s.r.Int63() }

// Uniform returns a uniform draw in [lo, hi).
func (s *Source) Uniform(lo, hi float64) float64 {
	return lo + (hi-lo)*s.r.Float64()
}

// Exp returns an exponential draw with the given mean (not rate). It panics
// if mean <= 0, which is a programming error.
func (s *Source) Exp(mean float64) float64 {
	if mean <= 0 {
		panic("xrand: exponential mean must be positive")
	}
	return s.r.ExpFloat64() * mean
}

// Normal returns a normal draw with the given mean and standard deviation.
func (s *Source) Normal(mean, stddev float64) float64 {
	return s.r.NormFloat64()*stddev + mean
}

// LogNormal returns a lognormal draw where the underlying normal has
// parameters mu and sigma. Its mean is exp(mu + sigma²/2).
func (s *Source) LogNormal(mu, sigma float64) float64 {
	return math.Exp(s.r.NormFloat64()*sigma + mu)
}

// LogNormalMean returns a lognormal draw with the given distribution mean
// and sigma parameter; it solves for mu so that E[X] = mean.
func (s *Source) LogNormalMean(mean, sigma float64) float64 {
	return s.LogNormal(LogNormalMu(mean, sigma), sigma)
}

// LogNormalMu returns the mu of a lognormal with the given distribution
// mean and sigma: log(mean) − sigma²/2, so that E[X] = mean. It panics if
// mean <= 0, which is a programming error.
func LogNormalMu(mean, sigma float64) float64 {
	if mean <= 0 {
		panic("xrand: lognormal mean must be positive")
	}
	return math.Log(mean) - sigma*sigma/2
}

// BoundedPareto returns a draw from a Pareto distribution with shape alpha
// truncated to [lo, hi]. Heavy-tailed job sizes in the workload generator
// use this.
func (s *Source) BoundedPareto(alpha, lo, hi float64) float64 {
	if lo <= 0 || hi <= lo || alpha <= 0 {
		panic("xrand: bounded pareto needs 0 < lo < hi and alpha > 0")
	}
	u := s.r.Float64()
	la := math.Pow(lo, alpha)
	ha := math.Pow(hi, alpha)
	return math.Pow(-(u*ha-u*la-ha)/(ha*la), -1/alpha)
}

// Poisson returns a Poisson-distributed count with the given mean, using
// Knuth's method for small means and a normal approximation for large ones.
func (s *Source) Poisson(mean float64) int {
	if mean <= 0 {
		return 0
	}
	if mean > 50 {
		// Normal approximation with continuity correction.
		n := int(math.Round(s.Normal(mean, math.Sqrt(mean))))
		if n < 0 {
			n = 0
		}
		return n
	}
	l := math.Exp(-mean)
	k := 0
	p := 1.0
	for {
		p *= s.r.Float64()
		if p <= l {
			return k
		}
		k++
	}
}

// Choice returns a uniformly random index in [0, n) excluding the given
// index. It panics if n < 2.
func (s *Source) Choice(n, excluding int) int {
	if n < 2 {
		panic("xrand: Choice needs n >= 2")
	}
	i := s.r.Intn(n - 1)
	if i >= excluding {
		i++
	}
	return i
}

// Shuffle permutes xs in place.
func (s *Source) Shuffle(n int, swap func(i, j int)) { s.r.Shuffle(n, swap) }

// ArrivalProcess generates open-loop arrival timestamps. Interarrival times
// are exponential (a Poisson process, the M in the paper's M/G/1 model), and
// the rate can be changed mid-run to model diurnal load.
type ArrivalProcess struct {
	src  *Source
	rate float64 // arrivals per second
	now  float64
}

// NewArrivalProcess returns a Poisson arrival process with the given rate in
// arrivals per second, starting at time 0.
func NewArrivalProcess(src *Source, rate float64) *ArrivalProcess {
	if rate <= 0 {
		panic("xrand: arrival rate must be positive")
	}
	return &ArrivalProcess{src: src, rate: rate}
}

// Rate returns the current arrival rate.
func (p *ArrivalProcess) Rate() float64 { return p.rate }

// SetRate changes the arrival rate for subsequent draws.
func (p *ArrivalProcess) SetRate(rate float64) {
	if rate <= 0 {
		panic("xrand: arrival rate must be positive")
	}
	p.rate = rate
}

// Next advances the process and returns the absolute time of the next
// arrival in seconds.
func (p *ArrivalProcess) Next() float64 {
	p.now += p.src.Exp(1 / p.rate)
	return p.now
}
