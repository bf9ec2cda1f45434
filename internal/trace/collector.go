package trace

import (
	"repro/internal/stats"
	"repro/internal/xrand"
)

// Collector accumulates the two metrics of the paper's evaluation (§VI-A):
//
//   - the overall service latency of every request (reported as an average),
//   - the component latency of every winning sub-request (reported as p99).
//
// Observations before the warmup horizon are dropped so queue fill-up does
// not bias the distributions. Component latencies go through a reservoir to
// bound memory at high request rates.
type Collector struct {
	WarmupUntil float64 // virtual time before which observations are dropped

	overall   []float64
	component *Reservoir
	perStage  []stats.Welford

	// tenants maps tenant name → retained overall latencies for tenanted
	// requests. Plain slices, allocated lazily on the first tenanted
	// request: per-tenant recording draws no randomness and costs nothing
	// when traffic is untenanted, so tenanted breakdowns never perturb —
	// and untenanted runs never pay for — the shared streams.
	tenants map[string][]float64

	droppedOverall   int
	droppedComponent int
}

// NewCollector creates a collector for a service with numStages stages.
// componentCap bounds the component-latency reservoir.
func NewCollector(numStages, componentCap int, src *xrand.Source) *Collector {
	return &Collector{
		component: NewReservoir(componentCap, src),
		perStage:  make([]stats.Welford, numStages),
	}
}

// ReserveComponents makes room in the component-latency reservoir for n
// observations, up to its capacity (Reservoir.Reserve).
func (c *Collector) ReserveComponents(n int) { c.component.Reserve(n) }

// RecordOverall records one request's end-to-end latency observed at time
// now (both in seconds).
func (c *Collector) RecordOverall(now, latency float64) {
	if now < c.WarmupUntil {
		c.droppedOverall++
		return
	}
	c.overall = append(c.overall, latency)
}

// RecordTenantOverall records one request's end-to-end latency under its
// tenant's breakdown; callers pair it with RecordOverall for tenanted
// requests (the overall distribution always includes every request).
func (c *Collector) RecordTenantOverall(tenant string, now, latency float64) {
	if now < c.WarmupUntil {
		return
	}
	if c.tenants == nil {
		c.tenants = make(map[string][]float64)
	}
	c.tenants[tenant] = append(c.tenants[tenant], latency)
}

// TenantLatencies returns the retained per-tenant end-to-end latencies in
// seconds, nil when no tenanted request completed.
func (c *Collector) TenantLatencies() map[string][]float64 { return c.tenants }

// RecordComponent records one winning sub-request latency for a component
// in the given stage.
func (c *Collector) RecordComponent(now float64, stage int, latency float64) {
	if now < c.WarmupUntil {
		c.droppedComponent++
		return
	}
	c.component.Add(latency)
	if stage >= 0 && stage < len(c.perStage) {
		c.perStage[stage].Add(latency)
	}
}

// NumOverall reports how many overall latencies were kept.
func (c *Collector) NumOverall() int { return len(c.overall) }

// Report summarises a run. All latencies are in milliseconds.
type Report struct {
	Requests int // completed requests counted
	// AvgOverallMs is the average overall service latency (paper metric 2).
	AvgOverallMs float64
	// P99ComponentMs is the 99th-percentile component latency (paper
	// metric 1).
	P99ComponentMs float64
	// Overall and Component hold full descriptive statistics (ms).
	Overall   stats.Summary
	Component stats.Summary
	// StageMeanMs is the mean component latency per stage (ms).
	StageMeanMs []float64
}

// Report computes the run summary from copies of the retained latencies,
// so recording may go on afterwards.
func (c *Collector) Report() Report { return c.report(stats.Summarize) }

// FinalReport computes the same summary as Report without the copies: it
// sorts the retained latencies in place. That reorders the reservoir's
// sample, so nothing may be recorded after it; Report still agrees.
func (c *Collector) FinalReport() Report { return c.report(stats.SummarizeInPlace) }

func (c *Collector) report(summarize func([]float64) stats.Summary) Report {
	toMs := func(s stats.Summary) stats.Summary {
		s.Mean *= 1000
		s.P50 *= 1000
		s.P90 *= 1000
		s.P95 *= 1000
		s.P99 *= 1000
		s.Min *= 1000
		s.Max *= 1000
		return s
	}
	overall := toMs(summarize(c.overall))
	comp := toMs(summarize(c.component.Values()))
	stageMeans := make([]float64, len(c.perStage))
	for i := range c.perStage {
		stageMeans[i] = c.perStage[i].Mean() * 1000
	}
	return Report{
		Requests:       len(c.overall),
		AvgOverallMs:   overall.Mean,
		P99ComponentMs: comp.P99,
		Overall:        overall,
		Component:      comp,
		StageMeanMs:    stageMeans,
	}
}
