// Package trace collects latency observations from simulation runs and
// renders the summaries the evaluation reports: average overall service
// latency and the 99th-percentile component latency.
package trace

import "repro/internal/xrand"

// Reservoir keeps a uniform random sample of a stream of float64
// observations with bounded memory (Vitter's Algorithm R). High-rate runs
// produce millions of per-component latencies; a 100k-element reservoir
// estimates p99 to well under a percent of relative error.
type Reservoir struct {
	cap    int
	seen   int
	values []float64
	src    *xrand.Source
}

// NewReservoir creates a reservoir holding at most cap observations. It
// allocates no storage: Reserve sizes it for a known stream, and Add grows
// it otherwise.
func NewReservoir(cap int, src *xrand.Source) *Reservoir {
	if cap <= 0 {
		panic("trace: reservoir capacity must be positive")
	}
	return &Reservoir{cap: cap, src: src}
}

// Reserve makes room for min(n, cap) observations in all, so a stream of
// that length fills the reservoir without reallocating. The retained
// values and the draws Add makes do not depend on it: Algorithm R draws
// only once cap observations are held.
func (r *Reservoir) Reserve(n int) {
	if n = min(n, r.cap); n > cap(r.values) {
		grown := make([]float64, len(r.values), n)
		copy(grown, r.values)
		r.values = grown
	}
}

// Add records one observation.
func (r *Reservoir) Add(x float64) {
	r.seen++
	if len(r.values) < r.cap {
		r.values = append(r.values, x)
		return
	}
	if i := r.src.Intn(r.seen); i < r.cap {
		r.values[i] = x
	}
}

// Seen reports the total number of observations offered.
func (r *Reservoir) Seen() int { return r.seen }

// Len reports the number of retained observations.
func (r *Reservoir) Len() int { return len(r.values) }

// Values returns the retained sample. Callers must not mutate it.
func (r *Reservoir) Values() []float64 { return r.values }
