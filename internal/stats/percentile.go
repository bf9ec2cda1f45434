package stats

import "math"

// Percentile returns the p-th percentile (0 ≤ p ≤ 100) of xs using linear
// interpolation between closest ranks. It does not modify xs. It returns 0
// for an empty slice.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sorted := make([]float64, len(xs))
	copy(sorted, xs)
	SortFloats(sorted)
	return PercentileSorted(sorted, p)
}

// PercentileSorted is Percentile for an already-sorted slice; it performs no
// copy and no sort.
func PercentileSorted(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	if n == 1 {
		return sorted[0]
	}
	if p <= 0 {
		return sorted[0]
	}
	if p >= 100 {
		return sorted[n-1]
	}
	rank := p / 100 * float64(n-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return sorted[lo]
	}
	frac := rank - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Variance returns the population variance of xs.
func Variance(xs []float64) float64 {
	var w Welford
	w.AddAll(xs)
	return w.Variance()
}

// Max returns the maximum of xs, or 0 for an empty slice.
func Max(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m
}

// Min returns the minimum of xs, or 0 for an empty slice.
func Min(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m
}

// Summary captures the descriptive statistics the evaluation reports for a
// latency trace: mean, p50/p90/p95/p99, min and max.
type Summary struct {
	N    int
	Mean float64
	P50  float64
	P90  float64
	P95  float64
	P99  float64
	Min  float64
	Max  float64
}

// Summarize computes a Summary of xs. It sorts a copy of the input.
func Summarize(xs []float64) Summary {
	sorted := make([]float64, len(xs))
	copy(sorted, xs)
	return SummarizeInPlace(sorted)
}

// SummarizeInPlace is Summarize without the copy: it sorts xs itself.
func SummarizeInPlace(xs []float64) Summary {
	if len(xs) == 0 {
		return Summary{}
	}
	SortFloats(xs)
	return Summary{
		N:    len(xs),
		Mean: Mean(xs),
		P50:  PercentileSorted(xs, 50),
		P90:  PercentileSorted(xs, 90),
		P95:  PercentileSorted(xs, 95),
		P99:  PercentileSorted(xs, 99),
		Min:  xs[0],
		Max:  xs[len(xs)-1],
	}
}
