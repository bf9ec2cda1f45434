package pcs

import (
	"runtime"
	"testing"
	"unsafe"

	"repro/internal/service"
)

// TestRequestPathAllocationsPinned pins the data plane's allocation
// discipline: the heap objects Finish allocates per arrival must stay
// under a per-cell bound, set at the measured value plus ~25% headroom.
// Request-path events are handler records, sub-requests come from
// per-stage slabs and their extra executions from one arena per slab, so
// a closure or a per-sub-request allocation reintroduced on the request
// path adds at least one object per sub-request — 22 per request on the
// nutch-search cells, more on fanout-retry — and breaks the bound.
//
// The RED-5 cell pins the redundancy fan-out (five executions per
// sub-request, four of them in the slab's arena), and the RI-90 cell the
// reissue path, which no bench workload runs: its timer is the
// sub-request itself and its completion hook one method value per
// policy, so neither allocates per sub-request.
//
// The large-cluster PCS cell pins the control plane instead: its 194×96
// performance matrix is rebuilt every 2 simulated seconds from the
// monitor's windows. Both allocate a fixed number of objects per interval
// whatever m and k: the matrix's rows, its node and stage membership
// lists and the monitor's windows are each carved from one backing array,
// and window predictions reuse a per-shard buffer. Going back to per-node
// windows and membership lists (~4 objects per arrival here) or to
// per-row allocation (2m per build, ~5.4) breaks its bound.
//
// The record sizes are pinned too. A 100-component stage slab of
// 128-byte sub-requests fits Go's 13,568-byte size class, where 160 bytes
// would need 16,384; a RED-5 arena of four 40-byte executions per
// sub-request fits 16,384 where 56 bytes would need 24,576.
func TestRequestPathAllocationsPinned(t *testing.T) {
	if n := unsafe.Sizeof(service.SubRequest{}); n > 128 {
		t.Errorf("SubRequest is %d bytes, bound 128", n)
	}
	if n := unsafe.Sizeof(service.Execution{}); n > 40 {
		t.Errorf("Execution is %d bytes, bound 40", n)
	}
	nutch := func(technique Technique) RunSpec {
		return RunSpec{Technique: technique, Scenario: "nutch-search", Nodes: 8, SearchComponents: 12, ArrivalRate: 100, Requests: 1500}
	}
	cells := []struct {
		name  string
		spec  RunSpec
		bound float64 // measured: 4.29, 7.38, 5.76, 4.44, 49.2, 10.3
	}{
		{"sequential Basic", nutch(Basic), 5.4},
		{"sequential RED-5", nutch(RED5), 9.4},
		{"sequential RI-90", nutch(RI90), 7.3},
		{"sequential PCS", nutch(PCS), 5.9},
		{"2-lane fanout-retry", RunSpec{Technique: Basic, Scenario: "fanout-retry", ArrivalRate: 150, Requests: 1500, Lanes: 2}, 62},
		{"PCS control plane", RunSpec{Technique: PCS, Scenario: "large-cluster", ArrivalRate: 100, Requests: 600, SchedulingInterval: 2, Seed: 1}, 12.8},
	}
	for _, c := range cells {
		opts, err := c.spec.Options()
		if err != nil {
			t.Fatal(err)
		}
		s, err := NewSimulation(opts)
		if err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		res := s.Finish()
		runtime.ReadMemStats(&after)
		perArrival := float64(after.Mallocs-before.Mallocs) / float64(res.Arrivals)
		if perArrival > c.bound {
			t.Errorf("%s: %.2f heap objects per arrival, bound %.1f", c.name, perArrival, c.bound)
		}
	}
}
