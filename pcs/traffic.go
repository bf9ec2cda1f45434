package pcs

import (
	"sort"

	"repro/internal/stats"
	"repro/internal/traffic"
)

// TrafficSpec describes a run's arrival process — the production-shaped
// replacement for the scalar RunSpec.ArrivalRate: Poisson, trace replay,
// session populations, bursty MMPP or a multi-tenant mix with token-bucket
// admission. It is re-exported so it can ride inside a RunSpec under
// "traffic", and is exactly internal/traffic.Spec: pure data, validated up
// front, and constructed fresh for every replication so runs stay
// bit-reproducible. The kinds, the determinism contract and the trace file
// format are documented in docs/traffic.md.
type TrafficSpec = traffic.Spec

// TenantTraffic is one tenant inside a "multi-tenant" TrafficSpec: exactly
// internal/traffic.TenantSpec.
type TenantTraffic = traffic.TenantSpec

// TenantResult is one tenant's slice of a run: request accounting and the
// tenant's own end-to-end latency distribution. Offered counts every
// arrival the tenant generated inside the request budget; Admitted counts
// the ones that entered the service, Dropped the ones its token bucket
// denied. Latency percentiles cover the tenant's post-warmup completions.
type TenantResult struct {
	Name                       string
	Offered, Admitted, Dropped int
	AvgMs, P50Ms, P99Ms        float64
}

// tenantResults assembles the sorted per-tenant breakdown from the
// service's counters and the collector's per-tenant latencies, nil for
// untenanted traffic (keeping scalar-run Results byte-identical).
func (s *Simulation) tenantResults() []TenantResult {
	arrivals := s.svc.TenantArrivals()
	drops := s.svc.TenantDrops()
	if len(arrivals) == 0 && len(drops) == 0 {
		return nil
	}
	names := make(map[string]bool)
	for name := range arrivals {
		names[name] = true
	}
	for name := range drops {
		names[name] = true
	}
	lats := s.svc.Collector().TenantLatencies()
	out := make([]TenantResult, 0, len(names))
	for name := range names {
		sum := stats.Summarize(lats[name])
		out = append(out, TenantResult{
			Name:     name,
			Offered:  arrivals[name] + drops[name],
			Admitted: arrivals[name],
			Dropped:  drops[name],
			AvgMs:    sum.Mean * 1000,
			P50Ms:    sum.P50 * 1000,
			P99Ms:    sum.P99 * 1000,
		})
	}
	// Map iteration is unordered; reports are not. Sort by name.
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}
