// Package stats provides the numerical building blocks used throughout the
// PCS reproduction: online moment accumulators, percentile estimation and
// polynomial least-squares regression.
//
// Everything in this package is deterministic and allocation-conscious; the
// scheduler calls into it on the hot path when rebuilding the performance
// matrix, and the benchmark harness uses it to summarise latency traces.
package stats

import "math"

// Welford accumulates mean and variance of a stream of observations using
// Welford's numerically stable online algorithm. The zero value is ready to
// use.
type Welford struct {
	n    int
	mean float64
	m2   float64
}

// Add folds one observation into the accumulator.
func (w *Welford) Add(x float64) {
	w.n++
	delta := x - w.mean
	w.mean += delta / float64(w.n)
	w.m2 += delta * (x - w.mean)
}

// AddAll folds every value of xs into the accumulator.
func (w *Welford) AddAll(xs []float64) {
	for _, x := range xs {
		w.Add(x)
	}
}

// N reports the number of observations added so far.
func (w *Welford) N() int { return w.n }

// Mean returns the running mean, or 0 if no observations were added.
func (w *Welford) Mean() float64 { return w.mean }

// Variance returns the population variance of the observations seen so far.
// It returns 0 for fewer than two observations.
func (w *Welford) Variance() float64 {
	if w.n < 2 {
		return 0
	}
	return w.m2 / float64(w.n)
}

// SampleVariance returns the unbiased (n-1) sample variance.
func (w *Welford) SampleVariance() float64 {
	if w.n < 2 {
		return 0
	}
	return w.m2 / float64(w.n-1)
}

// StdDev returns the population standard deviation.
func (w *Welford) StdDev() float64 { return math.Sqrt(w.Variance()) }

// SquaredCV returns the squared coefficient of variation C²x = var(x)/x̄²,
// the quantity the M/G/1 latency formula (paper Eq. 2) depends on. It
// returns 0 when the mean is 0.
func (w *Welford) SquaredCV() float64 {
	if w.mean == 0 {
		return 0
	}
	return w.Variance() / (w.mean * w.mean)
}

// Reset returns the accumulator to its zero state.
func (w *Welford) Reset() { *w = Welford{} }

// MeanCI95 returns the half-width of the 95 % confidence interval of the
// mean, using Student's t quantile for small samples and the normal 1.96
// beyond. It returns 0 for fewer than two observations.
func (w *Welford) MeanCI95() float64 {
	if w.n < 2 {
		return 0
	}
	return tQuantile975(w.n-1) * math.Sqrt(w.SampleVariance()/float64(w.n))
}

// tQuantile975 returns the 97.5th-percentile quantile of Student's t
// distribution with df degrees of freedom (two-sided 95 % interval),
// tabulated for small df, stepped through standard anchor rows in the
// medium range, and 1.96 asymptotically.
func tQuantile975(df int) float64 {
	table := [...]float64{
		12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228,
		2.201, 2.179, 2.160, 2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086,
		2.080, 2.074, 2.069, 2.064, 2.060, 2.056, 2.052, 2.048, 2.045, 2.042,
	}
	switch {
	case df < 1:
		return 0
	case df <= len(table):
		return table[df-1]
	case df <= 40:
		return 2.021
	case df <= 60:
		return 2.000
	case df <= 120:
		return 1.980
	default:
		return 1.96
	}
}

// Merge combines another accumulator into this one, as if every observation
// added to other had been added to w. Uses the parallel variance formula.
func (w *Welford) Merge(other *Welford) {
	if other.n == 0 {
		return
	}
	if w.n == 0 {
		*w = *other
		return
	}
	n := w.n + other.n
	delta := other.mean - w.mean
	mean := w.mean + delta*float64(other.n)/float64(n)
	m2 := w.m2 + other.m2 + delta*delta*float64(w.n)*float64(other.n)/float64(n)
	w.n, w.mean, w.m2 = n, mean, m2
}
