// Package predictor implements the paper's performance predictor (§IV):
//
//   - The basic model (§IV-A): one regression RG(Usr) per shared resource
//     relating that resource's contention metric to the component's service
//     time, combined into RGST(U) by relevance-weighted averaging (Eq. 1).
//   - The extended model (§IV-B): M/G/1 expected latency per component
//     (Eq. 2), stage latency as the max over parallel components (Eq. 3),
//     and overall service latency as the sum over sequential stages (Eq. 4).
//   - The performance matrix (§IV-C): L[i][j] = predicted reduction in
//     overall latency if component ci migrates to node nj, using the
//     contention-vector update rules of Table III and Eq. 5, with the
//     incremental post-migration update of Algorithm 2.
package predictor

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/cluster"
	"repro/internal/stats"
)

// Sample is one profiling observation: the contention vector a component
// experienced and the mean service time measured under it. The paper
// obtains these from profiling runs or historical logs.
type Sample struct {
	U cluster.Vector
	X float64 // mean service time in seconds
}

// ServiceTimeModel is the combined regression RGST(U) of Eq. 1: a weighted
// average of per-resource regressions, where each weight w_sr is the
// relevance (R² on the training set) of that resource's contention metric
// to the observed service time.
type ServiceTimeModel struct {
	// Regs holds one regression per shared resource; entries may be nil
	// when the training data had no variation in that metric.
	Regs [cluster.NumResources]*stats.PolyRegression
	// Weights holds w_sr per resource (R² of the corresponding regression).
	Weights [cluster.NumResources]float64
	// FallbackMean is the mean training service time, used when every
	// weight is zero (degenerate training set).
	FallbackMean float64
}

// ErrNoSamples is returned when training is attempted with no samples.
var ErrNoSamples = errors.New("predictor: no training samples")

// Train fits the per-resource regressions on the sample set and computes
// their relevance weights. degree is the polynomial degree of each RG
// (degree 2 captures the convex core-saturation effect; degree 1 is plain
// linear regression).
func Train(samples []Sample, degree int) (*ServiceTimeModel, error) {
	if len(samples) == 0 {
		return nil, ErrNoSamples
	}
	if degree < 1 {
		return nil, fmt.Errorf("predictor: degree must be >= 1, got %d", degree)
	}
	m := &ServiceTimeModel{}
	ys := make([]float64, len(samples))
	for i, s := range samples {
		ys[i] = s.X
	}
	m.FallbackMean = stats.Mean(ys)

	xs := make([]float64, len(samples))
	for r := 0; r < cluster.NumResources; r++ {
		for i, s := range samples {
			xs[i] = s.U[r]
		}
		reg, err := stats.FitPoly(xs, ys, degree)
		if err != nil {
			// A metric with no variation (or too few samples) simply
			// carries no relevance weight.
			continue
		}
		m.Regs[r] = reg
		m.Weights[r] = reg.R2
	}
	return m, nil
}

// Predict evaluates RGST(U) (Eq. 1): the relevance-weighted average of the
// per-resource regressions. The result is clamped to a small positive
// floor; a regression extrapolating below zero would otherwise poison the
// queueing model.
func (m *ServiceTimeModel) Predict(u cluster.Vector) float64 {
	var num, den float64
	for r := 0; r < cluster.NumResources; r++ {
		if m.Regs[r] == nil || m.Weights[r] == 0 {
			continue
		}
		num += m.Weights[r] * m.Regs[r].Predict(u[r])
		den += m.Weights[r]
	}
	var x float64
	if den == 0 {
		x = m.FallbackMean
	} else {
		x = num / den
	}
	if x < 1e-9 || math.IsNaN(x) {
		x = 1e-9
	}
	return x
}

// predictWindow sets out[t] to Predict(u_t) for every sample of window,
// where u_t[r] = max(0, (window[t][r] + shift[r]) + adj[r]); out must hold
// len(window) values. It is predictWindowUnfloored at lo = 0 with
// Predict's floor applied, so every out[t] is Predict's float bit for bit.
func (m *ServiceTimeModel) predictWindow(window []cluster.Vector, shift, adj [cluster.NumResources]float64, out []float64) {
	out = out[:len(window)]
	m.predictWindowUnfloored(window, shift, adj, 0, out)
	for t, x := range out {
		if x < 1e-9 || math.IsNaN(x) {
			out[t] = 1e-9
		}
	}
}

// predictWindowUnfloored sets out[t] to Eq. 1's weighted average at
// u_t[r] = max(lo, (window[t][r] + shift[r]) + adj[r]), without Predict's
// floor. At lo = 0 it is Predict before the floor; at lo = −Inf neither
// clamp nor floor acts, which gives the polynomial whose window moments a
// shift of u moves by closed-form amounts (Matrix.closedFormTerm).
//
// It evaluates resource-major: each weighted regression's weight, shift
// and coefficients stay in locals while the whole window streams past,
// accumulating into out. Every out[t] sees Predict's operations in
// Predict's order — the shifted sum left to right, Horner from y = 0,
// terms summed in ascending resource order, one division by the same
// weight sum.
func (m *ServiceTimeModel) predictWindowUnfloored(window []cluster.Vector, shift, adj [cluster.NumResources]float64, lo float64, out []float64) {
	out = out[:len(window)]
	var den float64
	clear(out)
	for r := 0; r < cluster.NumResources; r++ {
		reg, w := m.Regs[r], m.Weights[r]
		if reg == nil || w == 0 {
			continue
		}
		den += w
		sh, ad := shift[r], adj[r]
		// Degrees 1 (PCS's default) and 2 unroll Horner with the
		// coefficients in locals; other degrees call the regression.
		switch c := reg.Coef; len(c) {
		case 2:
			c0, c1 := c[0], c[1]
			for t := range window {
				x := shifted(window[t][r], sh, ad, lo)
				out[t] += w * ((0*x+c1)*x + c0)
			}
		case 3:
			c0, c1, c2 := c[0], c[1], c[2]
			for t := range window {
				x := shifted(window[t][r], sh, ad, lo)
				out[t] += w * (((0*x+c2)*x+c1)*x + c0)
			}
		default:
			for t := range window {
				x := shifted(window[t][r], sh, ad, lo)
				out[t] += w * reg.Predict(x)
			}
		}
	}
	for t, num := range out {
		out[t] = m.FallbackMean
		if den != 0 {
			out[t] = num / den
		}
	}
}

// shifted is one coordinate of a shifted sample: (s + shift) + adj, added
// left to right, clamped at lo — zero on the prediction path, because real
// contention metrics are non-negative.
func shifted(s, shift, adj, lo float64) float64 {
	x := (s + shift) + adj
	if x < lo {
		return lo
	}
	return x
}
