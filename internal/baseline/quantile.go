package baseline

import "repro/internal/stats"

// quantileEstimator estimates running quantiles of a latency stream from a
// sliding window: a ring buffer of the most recent observations with a
// cached sorted copy refreshed every `refresh` insertions. The reissue
// policy consults it on every dispatch, so reads must be cheap.
type quantileEstimator struct {
	ring    []float64
	size    int
	next    int
	refresh int
	pending int
	sorted  []float64
}

func newQuantileEstimator(window, refresh int) *quantileEstimator {
	if window <= 0 {
		window = 1024
	}
	if refresh <= 0 {
		refresh = window / 8
	}
	return &quantileEstimator{
		ring:    make([]float64, window),
		refresh: refresh,
	}
}

// Add records one observation.
func (q *quantileEstimator) Add(x float64) {
	q.ring[q.next] = x
	q.next = (q.next + 1) % len(q.ring)
	if q.size < len(q.ring) {
		q.size++
	}
	q.pending++
}

// Quantile returns the p-th percentile of the window. ok is false until at
// least 32 observations have been seen (cold start).
func (q *quantileEstimator) Quantile(p float64) (value float64, ok bool) {
	if q.size < 32 {
		return 0, false
	}
	if q.sorted == nil || q.pending >= q.refresh {
		q.sorted = append(q.sorted[:0], q.ring[:q.size]...)
		stats.SortFloats(q.sorted)
		q.pending = 0
	}
	idx := int(p / 100 * float64(len(q.sorted)-1))
	if idx < 0 {
		idx = 0
	}
	if idx >= len(q.sorted) {
		idx = len(q.sorted) - 1
	}
	return q.sorted[idx], true
}
