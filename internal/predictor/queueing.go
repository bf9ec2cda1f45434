package predictor

import "math"

// QueueModel selects the queueing formula of the extended model (§IV-B).
type QueueModel int

const (
	// MG1 is the paper's default: Poisson arrivals, general service times,
	// one server (Eq. 2, using the Pollaczek–Khinchine mean waiting time).
	MG1 QueueModel = iota
	// MM1 is the exponential-service special case the paper notes
	// (C²x = 1): l = 1/(µ−λ). Used for the queue-model ablation.
	MM1
	// NoQueue ignores queueing delay and predicts the bare service time —
	// the "basic model only" ablation.
	NoQueue
)

// String names the queue model.
func (q QueueModel) String() string {
	switch q {
	case MG1:
		return "M/G/1"
	case MM1:
		return "M/M/1"
	case NoQueue:
		return "no-queue"
	default:
		return "queue-model(?)"
	}
}

// LatencyParams bounds the queueing formulas near and beyond saturation.
// Eq. 2 diverges as ρ→1; predicted service environments can legitimately
// be overloaded (that is exactly what PCS must detect and flee), so the
// predictor extrapolates linearly past RhoMax with a steep, monotone
// penalty instead of returning infinities that would break matrix
// arithmetic.
type LatencyParams struct {
	// RhoMax caps the utilisation used inside the queueing formula.
	RhoMax float64
	// OverloadSlope is the per-unit-ρ multiplier applied beyond RhoMax.
	OverloadSlope float64
}

// DefaultLatencyParams returns the bounds used across the evaluation.
func DefaultLatencyParams() LatencyParams {
	return LatencyParams{RhoMax: 0.98, OverloadSlope: 50}
}

// ExpectedLatency computes a component's expected latency l (Eq. 2) from
// the predicted mean service time x̄, service-time variance var(x), and the
// monitored arrival rate λ, under the chosen queue model.
//
//	l = x̄ + λ(1+C²x) / (2µ²(1−ρ)),  C²x = var(x)/x̄²,  ρ = λ/µ,  µ = 1/x̄
func ExpectedLatency(model QueueModel, meanX, varX, lambda float64, p LatencyParams) float64 {
	l, _ := expectedLatency(model, meanX, varX, lambda, p)
	return l
}

// expectedLatency is ExpectedLatency, also reporting whether the formula's
// value was non-finite and replaced by the meanX·1e6 fallback: the one
// step at which the latency stops rising with meanX.
func expectedLatency(model QueueModel, meanX, varX, lambda float64, p LatencyParams) (float64, bool) {
	if meanX <= 0 {
		return 0, false
	}
	if model == NoQueue || lambda <= 0 {
		return meanX, false
	}
	p = p.effective()
	rho := lambda * meanX
	boundedRho := rho
	overload := 1.0
	if rho > p.RhoMax {
		boundedRho = p.RhoMax
		overload = 1 + (rho-p.RhoMax)*p.OverloadSlope
	}
	var l float64
	switch model {
	case MM1:
		// l = 1/(µ−λ) = x̄/(1−ρ)
		l = meanX / (1 - boundedRho)
	default: // MG1
		c2 := 0.0
		if meanX > 0 {
			c2 = varX / (meanX * meanX)
		}
		// x̄ + λ(1+C²x)·x̄² / (2(1−ρ))
		l = meanX + lambda*(1+c2)*meanX*meanX/(2*(1-boundedRho))
	}
	l *= overload
	if math.IsNaN(l) || math.IsInf(l, 0) {
		return meanX * 1e6, true
	}
	return l, false
}

// effective returns the parameters ExpectedLatency applies: p, or the
// defaults when RhoMax lies outside (0, 1).
func (p LatencyParams) effective() LatencyParams {
	if p.RhoMax <= 0 || p.RhoMax >= 1 {
		return DefaultLatencyParams()
	}
	return p
}

// riseMargin returns a relative margin g such that, for service-time means
// 1e-9 ≤ x ≤ y, a variance v and a rate λ with λ·(1 + v·1.01e18) ≤ 1e300,
// ExpectedLatency(x, v) ≤ ExpectedLatency(y, v)·(1 + g) in floats whenever
// the evaluation at y gives at most 1e300 without the fallback; +Inf when
// no small margin holds.
//
// In real arithmetic l rises with x̄ (OverloadSlope ≥ 0). The float
// evaluation differs from it by a relative error E: 13 roundings along the
// M/G/1 chain (6 in the numerator, 1 − ρ and the division, the sum, 3 in
// the overload factor, the product), the rounding of ρ = λ·x̄ amplified by
// 1/(1−RhoMax) through 1 − ρ and by RhoMax·OverloadSlope through the
// overload factor, so E ≤ u·(13 + 1/(1−RhoMax) + RhoMax·OverloadSlope) to
// first order, with u = 2⁻⁵³. The λ guard keeps every intermediate finite
// at any x ≥ 1e-9, so neither side takes the fallback, and an underflowed
// queueing term moves l ≥ x by less than an ulp. Then l(x) ≤
// l(y)·(1+E)/(1−E), and g = 4u·(16 + 1/(1−RhoMax) + RhoMax·OverloadSlope)
// covers that, the rounding of y's product with 1 + g and the second-order
// terms twice over. Past g = 1e-6 (RhoMax within ~1e-9 of 1, or a huge
// slope) the first-order analysis is not trusted, and a negative or NaN
// slope makes l fall with x̄.
func (p LatencyParams) riseMargin() float64 {
	p = p.effective()
	if !(p.OverloadSlope >= 0) {
		return math.Inf(1)
	}
	const u = 0x1p-53
	g := 4 * u * (16 + 1/(1-p.RhoMax) + p.RhoMax*p.OverloadSlope)
	if !(g <= 1e-6) {
		return math.Inf(1)
	}
	return g
}

// StageLatency is Eq. 3: the latency of a stage of parallel components is
// the maximum of their latencies.
func StageLatency(componentLatencies []float64) float64 {
	m := 0.0
	for _, l := range componentLatencies {
		if l > m {
			m = l
		}
	}
	return m
}

// OverallLatency is Eq. 4: the overall service latency is the sum of the
// sequential stage latencies.
func OverallLatency(stageLatencies []float64) float64 {
	s := 0.0
	for _, l := range stageLatencies {
		s += l
	}
	return s
}
