package service

import (
	"repro/internal/cluster"
	"repro/internal/xrand"
)

// InterferenceLaw is the ground truth mapping from a node's background
// contention to a component's service time. It substitutes for physical
// resource contention on the paper's Xen testbed (see DESIGN.md §2): the
// mean service time is the uncontended base stretched by a contention
// multiplier, and individual service times are exponentially distributed
// around that mean (the paper's §IV-B notes service components commonly
// have exponential service times, C²x = 1).
//
// The multiplier is
//
//	mult(U) = 1 + αcore·(u + κ·u²) + αcache·uc + αdisk·ud + αnet·un
//
// with each metric normalised by the node capacity to [0, 1]. The quadratic
// core term models the super-linear slowdown as a node's cores approach
// saturation; the predictor's degree-2 regressions can learn it but are not
// handed it.
type InterferenceLaw struct {
	// Capacity normalises raw contention metrics; use the hosting node's
	// capacity.
	Capacity cluster.Vector
	// Alpha is the sensitivity of service time to each (normalised)
	// resource metric.
	Alpha cluster.Vector
	// CoreConvexity is the κ coefficient of the quadratic core term.
	CoreConvexity float64
	// NoiseSigma shapes the service-time distribution around its mean:
	// positive values draw multiplicative lognormal noise with this sigma
	// (C²x = exp(σ²)−1); zero or negative selects exponential service
	// times (C²x = 1, the paper's M/M/1 special case).
	NoiseSigma float64
}

// DefaultLaw returns the law used across the evaluation, calibrated so that
// a typical mixed batch co-runner set (≈2 jobs/node) stretches service
// times by 1.5–3× and a saturated node by up to ≈6×. The intrinsic noise
// is small (σ=0.18, C²x≈0.03): the paper's premise is that component
// latency variability is dominated by interference from co-located batch
// jobs, not by intrinsic service randomness (§II-A).
func DefaultLaw(capacity cluster.Vector) InterferenceLaw {
	return InterferenceLaw{
		Capacity: capacity,
		Alpha: cluster.Vector{
			cluster.Core:   1.40,
			cluster.Cache:  0.60,
			cluster.DiskBW: 0.70,
			cluster.NetBW:  0.50,
		},
		CoreConvexity: 1.0,
		NoiseSigma:    0.12,
	}
}

// normalise maps a raw metric to [0, 1] against capacity; zero-capacity
// resources pass through untouched.
func (law InterferenceLaw) normalise(u cluster.Vector) cluster.Vector {
	for r := 0; r < cluster.NumResources; r++ {
		if law.Capacity[r] > 0 {
			u[r] /= law.Capacity[r]
			if u[r] > 1 {
				u[r] = 1
			}
		}
	}
	return u
}

// Multiplier returns the contention multiplier for background contention u
// (raw units; normalisation is internal). It is ≥ 1.
func (law InterferenceLaw) Multiplier(u cluster.Vector) float64 {
	n := law.normalise(u)
	uc := n[cluster.Core]
	m := 1 +
		law.Alpha[cluster.Core]*(uc+law.CoreConvexity*uc*uc) +
		law.Alpha[cluster.Cache]*n[cluster.Cache] +
		law.Alpha[cluster.DiskBW]*n[cluster.DiskBW] +
		law.Alpha[cluster.NetBW]*n[cluster.NetBW]
	return m
}

// MeanServiceTime returns the expected service time for a component with
// the given base time under background contention u.
func (law InterferenceLaw) MeanServiceTime(base float64, u cluster.Vector) float64 {
	return base * law.Multiplier(u)
}

// Sample draws one service time around MeanServiceTime: lognormal with the
// law's NoiseSigma (general service times — the G of the paper's M/G/1
// model), or exponential when NoiseSigma ≤ 0 (the M/M/1 special case the
// paper notes). Either way, time-varying contention makes the long-run
// service-time distribution general.
func (law InterferenceLaw) Sample(base float64, u cluster.Vector, src *xrand.Source) float64 {
	return drawServiceTime(law.MeanServiceTime(base, u), law.NoiseSigma, src)
}

// drawServiceTime draws one service time around mean: lognormal with the
// given sigma, exponential when sigma ≤ 0 (see InterferenceLaw.Sample).
func drawServiceTime(mean, sigma float64, src *xrand.Source) float64 {
	if sigma <= 0 {
		return src.Exp(mean)
	}
	return src.LogNormalMean(mean, sigma)
}
